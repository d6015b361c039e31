"""Hamiltonian assembly and time evolution for the driven two-spin model."""

import json

import warnings

import mpmath
import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import bellgate.model
import bellgate.spinlin
from bellgate import PhysicalParams, assemble_hamiltonian, build_hamiltonian, evolve
from bellgate.fidelity import _admissible
from bellgate.model import GENERATORS
from bellgate.pointkernel import _point_coefficients

from conftest import dense_propagator, edge_params, parsed, random_params

HERMITICITY_TOL = 1e-14
ORACLE_TOL = 1e-11
EPS = np.finfo(float).eps
#: evolve against the dense path, in units of eps (1 + t max(|c0| + |c|)); the largest
#: ratio measured over 5000 draws of the property below was 7.6, at t = 0
DENSE_AGREEMENT = 16.0

# Hand-expanded matrix for J=(0.3, -0.7, 1.1), B1=0.4, B2=-0.2, h=3:
#   0.3 XX - 0.7 YY + 1.1 ZZ - 0.4 Z(x)I + 0.2 I(x)Z
FROZEN_H = np.array(
    [
        [0.9, 0.0, 0.0, 1.0],
        [0.0, -1.7, -0.4, 0.0],
        [0.0, -0.4, -0.5, 0.0],
        [1.0, 0.0, 0.0, 1.3],
    ],
    dtype=complex,
)


def test_hamiltonian_frozen_example():
    hm = assemble_hamiltonian((0.3, -0.7, 1.1), 0.4, -0.2, 3)
    assert np.max(np.abs(hm - FROZEN_H)) < 1e-15


def test_admissible_is_the_params_value_rule():
    rows = [
        (0.0, 1.0, 2.0, 3.0, 4.0, 5.0),
        (-1e-300, 1.0, 2.0, 3.0, 4.0, 5.0),
        (1.0, np.nan, 2.0, 3.0, 4.0, 5.0),
        (1.0, 1.0, 2.0, 3.0, 4.0, np.inf),
        (np.inf, 1.0, 2.0, 3.0, 4.0, 5.0),
        (-0.0, -1.0, -2.0, -3.0, -4.0, -5.0),
    ]
    for row, ok in zip(rows, _admissible(np.array(rows))):
        try:
            PhysicalParams(t=row[0], J=row[1:4], B1=row[4], B2=row[5], h=1)
            accepted = True
        except ValueError:
            accepted = False
        assert ok == accepted


@pytest.mark.parametrize("h", [0, 4, True, 2.0])
def test_hamiltonian_rejects_bad_axis(h):
    with pytest.raises(ValueError):
        assemble_hamiltonian((0.3, -0.7, 1.1), 0.4, -0.2, h)


def test_hamiltonian_is_hermitian_and_traceless():
    rng = np.random.default_rng(21)
    for _ in range(50):
        p = random_params(rng)
        hm = build_hamiltonian(p)
        assert np.max(np.abs(hm - hm.conj().T)) < HERMITICITY_TOL
        assert abs(np.trace(hm)) < HERMITICITY_TOL


def test_exchange_only_diagonal_structure():
    # ZZ coupling alone: diag(J3, -J3, -J3, J3) in the 2*q1+q2 ordering
    hm = assemble_hamiltonian((0.0, 0.0, 1.3), 0.0, 0.0, 1)
    assert np.max(np.abs(hm - np.diag([1.3, -1.3, -1.3, 1.3]))) < 1e-15


def test_field_sign_and_qubit_ordering():
    # h=3, drive on qubit 1 only: H = -B1 Z(x)I, so |00> picks up phase
    # exp(+i B1 t) under U = exp(-i H t).  Pins both the field sign and
    # the convention that the first qubit is the slow index.
    b1, t = 0.9, 0.37
    u = evolve(PhysicalParams(t=t, J=(0.0, 0.0, 0.0), B1=b1, B2=0.0, h=3))
    assert u[0, 0] == pytest.approx(np.exp(1j * b1 * t), abs=1e-14)
    assert u[1, 1] == pytest.approx(np.exp(1j * b1 * t), abs=1e-14)
    assert u[2, 2] == pytest.approx(np.exp(-1j * b1 * t), abs=1e-14)
    u2 = evolve(PhysicalParams(t=t, J=(0.0, 0.0, 0.0), B1=0.0, B2=b1, h=3))
    assert u2[1, 1] == pytest.approx(np.exp(-1j * b1 * t), abs=1e-14)
    assert u2[2, 2] == pytest.approx(np.exp(1j * b1 * t), abs=1e-14)


def test_evolve_matches_generic_expm():
    rng = np.random.default_rng(8)
    for _ in range(20):
        p = random_params(rng)
        ref = scipy.linalg.expm(-1j * p.t * build_hamiltonian(p))
        assert np.max(np.abs(evolve(p) - ref)) < ORACLE_TOL


def test_evolve_zero_time_is_identity():
    p = PhysicalParams(t=0.0, J=(1.0, -0.5, 0.25), B1=2.0, B2=-1.0, h=2)
    assert np.max(np.abs(evolve(p) - np.eye(4))) < 1e-15


def test_evolve_composes_in_time():
    base = dict(J=(0.4, -1.1, 0.6), B1=0.3, B2=-0.8, h=2)
    u1 = evolve(PhysicalParams(t=0.5, **base))
    u2 = evolve(PhysicalParams(t=1.25, **base))
    u12 = evolve(PhysicalParams(t=1.75, **base))
    assert np.max(np.abs(u1 @ u2 - u12)) < 1e-12


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(t=-0.1, J=(0.0, 0.0, 0.0), B1=0.0, B2=0.0, h=1),
        dict(t=1.0, J=(0.0, 0.0, 0.0), B1=0.0, B2=0.0, h=0),
        dict(t=1.0, J=(0.0, 0.0, 0.0), B1=0.0, B2=0.0, h=4),
        dict(t=1.0, J=(0.0, 0.0), B1=0.0, B2=0.0, h=1),
        dict(t=1.0, J=(0.0, np.nan, 0.0), B1=0.0, B2=0.0, h=1),
        dict(t=np.inf, J=(0.0, 0.0, 0.0), B1=0.0, B2=0.0, h=1),
        dict(t=1.0, J=(0.0, 0.0, 0.0), B1=0.0, B2=0.0, h=True),
        dict(t=1.0, J=(0.0, 0.0, 0.0), B1=0.0, B2=0.0, h=1.0),
    ],
)
def test_params_validation(kwargs):
    with pytest.raises(ValueError):
        PhysicalParams(**kwargs)


def test_params_store_axis_as_int():
    p = PhysicalParams(t=1.0, J=(0.0, 0.0, 0.0), B1=0.0, B2=0.0, h=np.int64(3))
    assert type(p.h) is int and p.to_doc()["h"] == 3


def test_params_json_round_trip():
    p = PhysicalParams(t=1.5, J=(0.2, -0.3, 0.7), B1=1.0, B2=-0.25, h=2)
    text = json.dumps(p.to_doc())
    assert json.loads(text)["h"] == 2
    assert PhysicalParams.from_doc(json.loads(text)) == p


@pytest.mark.parametrize(
    "text",
    [
        "{}",
        "not json",
        '{"t": 1.0, "J": [0.0, 0.0], "B1": 0.0, "B2": 0.0, "h": 1}',
        '{"t": 1.0, "J": [0.0, 0.0, 0.0], "B1": 0.0, "B2": 0.0, "h": "one"}',
        '{"h": true, "t": 1.0, "J": [0.0, 0.0, 0.0], "B1": 0.0, "B2": 0.0}',
        '{"h": 3.0, "t": 1.0, "J": [0.0, 0.0, 0.0], "B1": 0.0, "B2": 0.0}',
        '{"t": "x", "J": [0.0, 0.0, 0.0], "B1": 0.0, "B2": 0.0, "h": 1}',
    ],
)
def test_params_from_json_rejects_malformed(text):
    with pytest.raises((ValueError, TypeError)):
        PhysicalParams.from_doc(parsed(text))


#: couplings with signed zeros, and magnitudes from 1e-300 to 1e300
COUPLINGS = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0]),
    st.floats(-1e300, 1e300, allow_nan=False, allow_infinity=False),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(COUPLINGS, min_size=5, max_size=5), st.integers(1, 3))
def test_assemble_hamiltonian_matches_a_sum_from_zero(c, h):
    # the oracle is the sum it replaced: Python's sum over the five terms,
    # starting from the integer zero; bit for bit, the sign of a zero included
    want = sum(np.array(c, dtype=float)[:, None, None] * GENERATORS[h])
    got = assemble_hamiltonian(c[:3], c[3], c[4], h)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize(
    "c",
    [(1.7e308, 1.7e308, 0.0, 0.0, 0.0), (1e308, -1e308, 0.0, 0.0, 0.0), (np.inf, 0.0, 0.0, 0.0, 0.0)],
)
def test_overflowing_hamiltonian_warns_nothing(c):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        hm = assemble_hamiltonian(c[:3], c[3], c[4], 1)
    assert not np.isfinite(hm).all()


def _evolve_oracle(p):
    # the propagator as it was formed with @: exp(-i H t) from the same eigendecomposition
    w, v = np.linalg.eigh(build_hamiltonian(p))
    return (v * np.exp(-1j * p.t * w)) @ v.conj().T


def _scaled(p, time_scale, coupling_scale):
    return PhysicalParams(
        t=p.t * time_scale, J=tuple(j * coupling_scale for j in p.J),
        B1=p.B1 * coupling_scale, B2=p.B2 * coupling_scale, h=p.h,
    )


#: t = 0 of either sign, degenerate blocks, and couplings from below 1e-300 to 1e103
SCALED_EDGE_PARAMS = (edge_params(), st.sampled_from([1.0, -0.0, 1e3, 1e6]), st.sampled_from([1.0, 1e100, 1e-300]))


@settings(max_examples=150, deadline=None)
@given(*SCALED_EDGE_PARAMS)
def test_dense_propagator_matches_the_matmul_product(case, time_scale, coupling_scale):
    # the dense path, evolve's oracle, bit for bit, the sign of a zero included
    p = _scaled(case[0], time_scale, coupling_scale)
    assert dense_propagator(p).tobytes() == _evolve_oracle(p).tobytes()


@settings(max_examples=150, deadline=None)
@given(*SCALED_EDGE_PARAMS)
def test_evolve_matches_the_dense_propagator(case, time_scale, coupling_scale):
    # the closed form against the eigendecomposition: each loses about eps per
    # radian of its largest eigenphase, and at t = 0 evolve is the exact identity
    p = _scaled(case[0], time_scale, coupling_scale)
    c, r = _point_coefficients((*p.J, p.B1, p.B2), p.h)
    phase = p.t * max(abs(ck[0]) + rk for ck, rk in zip(c, r))
    u = evolve(p)
    assert u.shape == (4, 4) and u.dtype == np.complex128
    assert np.abs(u - dense_propagator(p)).max() <= DENSE_AGREEMENT * EPS * (1.0 + phase)


def test_evolve_runs_no_dense_path(monkeypatch):
    # evolve is the direct sum of the block maps: no Hamiltonian, no
    # eigendecomposition, no kron and no BLAS product
    rng = np.random.default_rng(5)
    params = [random_params(rng, h=h) for h in (1, 2, 3)]
    params.append(PhysicalParams(t=0.0, J=(1.0, -0.5, 0.25), B1=2.0, B2=-1.0, h=2))
    want = [evolve(p) for p in params]

    def forbidden(*args, **kwargs):
        raise AssertionError("evolve must not call this")

    for module, names in (
        (np.linalg, ("eig", "eigh", "eigvalsh", "inv", "solve", "svd")),
        (np, ("dot", "einsum", "kron", "matmul", "vdot")),
        (bellgate.spinlin, ("expm_hermitian",)),
        (bellgate.model, ("assemble_hamiltonian", "build_hamiltonian")),
    ):
        for name in names:
            monkeypatch.setattr(module, name, forbidden)
    for p, u in zip(params, want):
        assert evolve(p).tobytes() == u.tobytes()


def _mp_propagator(p):
    """exp(-i H t) of the float Hamiltonian build_hamiltonian(p), to 60 digits (call inside workdps(60))."""
    hm = mpmath.matrix([[mpmath.mpc(complex(z)) for z in row] for row in build_hamiltonian(p)])
    return mpmath.expm(hm * mpmath.mpc(0, -p.t))


@pytest.mark.parametrize("h", [1, 2, 3])
def test_evolve_is_no_less_accurate_than_the_dense_path_at_large_phases(h):
    # both lose accuracy linearly in t; for the README couplings on axis 1 the
    # closed form's largest entry error is 1.5e-16 at t = 1.2 and 4.2e-7 at
    # t = 1e10, the dense path's 8.9e-16 and 4.7e-6
    for t in (1.2, 1e4, 1e6, 1e8, 1e10):
        p = PhysicalParams(t=t, J=(0.7, -0.4, 0.9), B1=0.3, B2=-0.6, h=h)
        with mpmath.workdps(60):
            w = _mp_propagator(p)
            err = [
                max(float(abs(mpmath.mpc(complex(u[i, j])) - w[i, j])) for i in range(4) for j in range(4))
                for u in (evolve(p), dense_propagator(p))
            ]
        assert err[0] <= err[1], (t, err)
        assert err[0] <= 64 * EPS * max(1.0, t)
