"""Fidelity response of calibrated gates to control perturbations."""

import math
import warnings
from dataclasses import fields, replace

import mpmath
import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import bellgate
import bellgate.fidelity as fid
from bellgate import (
    PARAM_NAMES,
    BlockState,
    FidelityReport,
    GateId,
    NonFiniteDerivative,
    NonUnitaryError,
    Perturbation,
    PhysicalParams,
    StateBatch,
    SweepResult,
    assemble_hamiltonian,
    bell_frame,
    build_hamiltonian,
    cnot_family,
    directional_derivatives,
    evolve,
    fidelity_exact,
    fidelity_second_order,
    prescription_targets,
    rank_parameters,
    reduced_params,
    sample_states,
    sensitivity_sweep,
    solve_physical,
    to_blocks,
)
from bellgate.checks import RANK_TIE_TOL
from bellgate.fidelity import _COEFF_MAP, BLOCK_BASIS, _sinc
from bellgate.model import GENERATORS

from conftest import DEGENERATE, edge_params, random_params

EXACT_UNITY_TOL = 1e-14
SKEW_TOL = 1e-9
DS_ORACLE_TOL = 1e-10
CUBIC_RATIO_LO = 6.0
CUBIC_RATIO_HI = 10.0
HALVING_FLOOR = 1e-12
HALVING_SHRINK = 0.6
HALVING_NOISE = 0.02
HALVING_LAST_GAP = 0.5
SCALING_LO = 3.6
SCALING_HI = 4.4
SYMMETRY_TOL = 1e-9

BASE = PhysicalParams(t=1.2, J=(0.7, -0.4, 0.9), B1=0.3, B2=-0.6, h=1)
FRAME = bell_frame(1)


def _state(vec):
    return BlockState.normalized(np.asarray(vec, dtype=complex), FRAME)


def _random_state(rng, frame=FRAME):
    v = rng.normal(size=4) + 1j * rng.normal(size=4)
    return BlockState.normalized(v, frame)


def _random_direction(rng, scale):
    d = rng.normal(size=6)
    return Perturbation(dp=tuple(d * scale / np.linalg.norm(d)))


def test_block_state_requires_normalization():
    with pytest.raises(ValueError):
        BlockState(amplitudes=np.array([1.0, 1.0, 0.0, 0.0], dtype=complex), frame=FRAME)
    with pytest.raises(ValueError):
        BlockState.normalized(np.zeros(4, dtype=complex), FRAME)
    with pytest.raises(ValueError, match=r"^state needs 4 amplitudes, got shape \(3,\)$"):
        BlockState(np.ones(3) / 3**0.5, FRAME)


@pytest.mark.parametrize(
    "vec, message",
    [
        (np.full(4, 1e200), "cannot normalize a state vector whose norm overflows"),
        ([0.0, 0.0, -1e155j, 0.0], "cannot normalize a state vector whose norm overflows"),
        ([np.inf, 0.0, 0.0, 0.0], "state amplitudes must be finite"),
        ([np.nan, 0.0, 0.0, 0.0], "state amplitudes must be finite"),
        ([0.0, complex(0.0, -np.inf), 0.0, 0.0], "state amplitudes must be finite"),
    ],
)
def test_normalized_refuses_vectors_it_cannot_scale_without_a_warning(vec, message):
    # an overflowing norm used to read as 0.0 after numpy's overflow warning,
    # and inf or nan reached the division with numpy's invalid-value warning
    with pytest.raises(ValueError, match=f"^{message}$"):
        BlockState.normalized(vec, FRAME)


def test_normalized_keeps_the_bits_of_the_division_by_the_norm():
    rng = np.random.default_rng(5)
    for scale in (1e-9, 1e-3, 1.0, 1e3, 1e150):
        v = scale * (rng.normal(size=4) + 1j * rng.normal(size=4))
        want = v / np.linalg.norm(v)
        assert BlockState.normalized(v, FRAME).amplitudes.tobytes() == want.tobytes()


@pytest.mark.parametrize("frame", [None, 1, "h1"])
def test_block_state_refuses_a_frame_that_is_not_a_bell_frame(frame):
    # before the check, both built and fidelity_exact failed with an AttributeError on frame.h
    message = f"expected a BellFrame, got {type(frame).__name__}"
    with pytest.raises(TypeError, match=message):
        BlockState([1, 0, 0, 0], frame)
    with pytest.raises(TypeError, match=message):
        sample_states(frame, 2, 0)


def test_block_state_amplitudes_read_only():
    st = _state([1.0, 0.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        st.amplitudes[0] = 0.0


def test_perturbation_validation():
    with pytest.raises(ValueError):
        Perturbation(dp=(1.0, 0.0, 0.0))
    with pytest.raises(ValueError):
        Perturbation(dp=(np.nan, 0.0, 0.0, 0.0, 0.0, 0.0))


def test_perturbation_axis_helpers():
    by_name = Perturbation.axis("B1", 1e-3)
    by_index = Perturbation.axis(4, 1e-3)
    assert by_name == by_index
    assert by_name.norm == pytest.approx(1e-3)
    assert Perturbation.axis("t", 2.0).dp == (2.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    for bad in ("J4", -1, 6, True, 2.0, None):
        with pytest.raises(ValueError):
            Perturbation.axis(bad, 1e-3)


def test_directional_derivatives_zero_direction():
    zero = Perturbation(dp=(0.0,) * 6)
    (ds1, ds2), _ = directional_derivatives(BASE, zero, FRAME)
    for m in (ds1, ds2):
        assert np.max(np.abs(m)) == 0.0


def test_directional_derivatives_against_plain_stencil():
    # independent oracle: generic-purpose expm and an unrefined central
    # difference along the same direction
    def block_map(x):
        hm = assemble_hamiltonian((x[1], x[2], x[3]), x[4], x[5], BASE.h)
        u = scipy.linalg.expm(-1j * x[0] * hm)
        w = FRAME.change_of_basis.conj().T @ u @ FRAME.change_of_basis
        return w[0:2, 0:2], w[2:4, 2:4]

    rng = np.random.default_rng(71)
    x0 = np.array([BASE.t, *BASE.J, BASE.B1, BASE.B2])
    for _ in range(5):
        dp = _random_direction(rng, 3e-3)
        (ds1, ds2), _ = directional_derivatives(BASE, dp, FRAME)
        d = np.array(dp.dp)
        eps = 1e-6 / np.linalg.norm(d)
        hi1, hi2 = block_map(x0 + eps * d)
        lo1, lo2 = block_map(x0 - eps * d)
        assert np.max(np.abs(ds1 - (hi1 - lo1) / (2 * eps))) < DS_ORACLE_TOL
        assert np.max(np.abs(ds2 - (hi2 - lo2) / (2 * eps))) < DS_ORACLE_TOL


def test_directional_derivatives_scale_with_step():
    # the derivatives are linear in the displacement, also far outside the
    # range where the expansion is useful
    rng = np.random.default_rng(72)
    for _ in range(10):
        p = random_params(rng)
        frame = bell_frame(p.h)
        dp = _random_direction(rng, 1.0)
        (u1, u2), _ = directional_derivatives(p, dp, frame)
        for k in (1e-6, 1e20):
            big = Perturbation(dp=tuple(k * x for x in dp.dp))
            (ds1, ds2), _ = directional_derivatives(p, big, frame)
            for got, want in ((ds1, k * u1), (ds2, k * u2)):
                assert np.max(np.abs(got - want)) < 1e-12 * np.max(np.abs(want))


def test_overlap_generator_is_skew_hermitian():
    # s^dag Ds must be skew-Hermitian because s stays unitary along the path
    rng = np.random.default_rng(73)
    for _ in range(10):
        p = random_params(rng)
        frame = bell_frame(p.h)
        hm = build_hamiltonian(p)
        w = frame.change_of_basis.conj().T @ hm @ frame.change_of_basis
        dp = _random_direction(rng, 1e-3)
        (ds1, ds2), _ = directional_derivatives(p, dp, frame)
        s1 = scipy.linalg.expm(-1j * p.t * w[0:2, 0:2])
        s2 = scipy.linalg.expm(-1j * p.t * w[2:4, 2:4])
        for s, ds in ((s1, ds1), (s2, ds2)):
            g = s.conj().T @ ds
            assert np.max(np.abs(g + g.conj().T)) < SKEW_TOL


def _augmented_derivatives(p, d, frame):
    """Oracle for the block derivatives along d: the upper-right block of
    exp([[A, B], [0, A]]) is the derivative of exp(A + l B) at l = 0
    (Najfeld & Havel, Adv. Appl. Math. 16 (1995) 321), here with scipy's
    Pade expm, A = -i t W and B = -i (dt W + t dW) in frame coordinates."""
    c = frame.change_of_basis
    w = c.conj().T @ build_hamiltonian(p) @ c
    dw = c.conj().T @ assemble_hamiltonian(d[1:4], d[4], d[5], p.h) @ c
    a = -1j * p.t * w
    e = scipy.linalg.expm(np.block([[a, -1j * (d[0] * w + p.t * dw)], [np.zeros((4, 4)), a]]))
    return e[0:2, 4:6], e[2:4, 6:8]


@settings(max_examples=300, deadline=None)
@given(edge_params(), st.lists(st.floats(-1.0, 1.0), min_size=6, max_size=6))
def test_block_derivatives_match_augmented_exponential(case, direction):
    # degenerate and near-degenerate blocks, t = 0 and couplings up to 1e3,
    # along the six unit axes and one drawn direction: the divided
    # differences against the augmented-matrix oracle, whose own Pade
    # error grows with the couplings and sets the loose bound; the block
    # maps against the propagator; and a Hermitian generator G = i s^dag Ds
    p, _ = case
    frame = bell_frame(p.h)
    dirs = list(np.eye(6))
    d = np.array(direction)
    if np.linalg.norm(d) > 1e-3:
        dirs.append(d / np.linalg.norm(d))
    want_s = to_blocks(evolve(p), frame)[:2]
    for u in dirs:
        ds, s = directional_derivatives(p, Perturbation(dp=tuple(u)), frame)
        for got, want in zip(ds, _augmented_derivatives(p, u, frame)):
            assert np.max(np.abs(got - want)) <= 1e-7 * max(1.0, np.max(np.abs(want)))
        for got, want in zip(s, want_s):
            assert np.max(np.abs(got - want)) <= 1e-10
        for sk, dk in zip(s, ds):
            g = 1j * sk.conj().T @ dk
            assert np.max(np.abs(g - g.conj().T)) <= 1e-12 * max(1.0, np.max(np.abs(g)))


def _mp_block_maps(p, d, frame):
    """60-digit oracle: the 4x4 frame-coordinate map s and its derivative Ds
    along d, as mpmath matrices from mpmath's expm of the augmented matrix
    of _augmented_derivatives.  Call under mpmath.workdps(60)."""
    c = mpmath.matrix(np.rint(frame.change_of_basis.real * np.sqrt(2.0)).tolist()) / mpmath.sqrt(2)

    def hamiltonian(x):
        hm = mpmath.zeros(4, 4)
        for v, g in zip(x, GENERATORS[p.h]):
            hm += mpmath.mpf(float(v)) * mpmath.matrix(g.tolist())
        return c.H * hm * c

    w = hamiltonian((*p.J, p.B1, p.B2))
    a = -1j * mpmath.mpf(p.t) * w
    b = -1j * (mpmath.mpf(float(d[0])) * w + mpmath.mpf(p.t) * hamiltonian(d[1:]))
    aug = mpmath.zeros(8, 8)
    for i in range(4):
        for j in range(4):
            aug[i, j] = aug[i + 4, j + 4] = a[i, j]
            aug[i, j + 4] = b[i, j]
    e = mpmath.expm(aug)
    return e[0:4, 0:4], e[0:4, 4:8]


@pytest.mark.parametrize("tag, m, field_scale", [("CNOT_12", 8, 10.0), ("CNOT_21", 4, 3.0)])
def test_gradient_against_60_digit_oracle(tag, m, field_scale):
    # the sweep's quadratic coefficients Var(G) on large-field cards
    card = cnot_family(GateId(tag), m, field_scale)
    p = card.solved
    frame = bell_frame(p.h)
    states = sample_states(frame, n=4, seed=7)
    grads = {r.state_id: r.per_parameter_gradient for r in sensitivity_sweep(card, states, [1e-2])}
    with mpmath.workdps(60):
        for i in range(6):
            s, ds = _mp_block_maps(p, np.eye(6)[i], frame)
            g = 1j * s.H * ds
            for sid, state in enumerate(states):
                a = mpmath.matrix(state.amplitudes.tolist())
                ga = g * a
                var = float(sum(abs(z) ** 2 for z in ga) - abs((a.H * ga)[0]) ** 2)
                assert abs(grads[sid][i] - var) <= 1e-13 * var


def test_block_derivatives_against_60_digit_oracle():
    # couplings of 3e2 to 1e3 at short times, where a Pade exponential of
    # the augmented matrix loses digits to scaling and squaring
    rng = np.random.default_rng(5)
    for _ in range(4):
        c = rng.uniform(3e2, 1e3, size=5) * rng.choice([-1.0, 1.0], size=5)
        t = float(10.0 ** rng.uniform(-2.0, -0.5))
        p = PhysicalParams(t=t, J=tuple(c[:3]), B1=c[3], B2=c[4], h=int(rng.integers(1, 4)))
        d = rng.normal(size=6)
        d /= np.linalg.norm(d)
        frame = bell_frame(p.h)
        ds, _ = directional_derivatives(p, Perturbation(dp=tuple(d)), frame)
        with mpmath.workdps(60):
            want = np.array([[complex(z) for z in row] for row in _mp_block_maps(p, d, frame)[1].tolist()])
        scale = max(1.0, np.max(np.abs(want)))
        for k, got in zip((0, 2), ds):
            assert np.max(np.abs(got - want[k : k + 2, k : k + 2])) <= 1e-12 * scale


def _divided_difference_generators(p, d):
    """Oracle for the Pauli-coordinate generators: G = i s^dag Ds of both
    blocks along d from each block's eigendecomposition and the
    Daleckii-Krein divided differences (Higham, Functions of Matrices,
    SIAM 2008, sec. 3.2).  With W = c0 + V diag(w) V^dag and
    X = dt W + t dW, G = V ((V^dag X V) * P) V^dag,
    P_ab = exp(i y_ab) sinc(y_ab), y_ab = t (w_a - w_b) / 2.  The
    eigendecomposition is of c . sigma alone, so a large c0 costs it no
    digits; c0 commutes and passes through the diagonal of P."""
    coeffs = _COEFF_MAP[p.h].T.reshape(2, 4, 5)
    c = coeffs @ np.array([*p.J, p.B1, p.B2])
    dc = coeffs @ d[1:]
    out = []
    for b in (0, 1):
        w, v = np.linalg.eigh(np.einsum("a,aij->ij", c[b, 1:], BLOCK_BASIS[1:]))
        x = np.einsum("a,aij->ij", d[0] * c[b] + p.t * dc[b], BLOCK_BASIS)
        y = p.t * (w[:, None] - w[None, :]) / 2.0
        sinc = np.divide(np.sin(y), y, out=np.ones_like(y), where=y != 0.0)
        out.append(v @ ((v.conj().T @ x @ v) * np.exp(1j * y) * sinc) @ v.conj().T)
    return np.array(out)


def test_generators_match_divided_differences_at_edge_regimes():
    # 1000 parameter sets: generic, degenerate and near-degenerate blocks
    # and t = 0, with couplings from 1e-3 to 1e6 and t |c| up to about 3e6;
    # six unit axes and one drawn direction each
    rng = np.random.default_rng(29)
    worst = 0.0
    for k in range(1000):
        h = int(rng.integers(1, 4))
        scale = 10.0 ** rng.uniform(-3.0, 6.0)
        c = rng.uniform(-1.0, 1.0, size=5) * scale
        kind = k % 4
        if kind in (1, 2):
            a, b, s_j, s_b = DEGENERATE[(h, int(rng.integers(1, 3)))]
            c[b] = s_j * c[a]
            c[4] = s_b * c[3]
        if kind == 2:
            c += rng.uniform(-1.0, 1.0, size=5) * scale * 10.0 ** rng.uniform(-16.0, -6.0)
        t = 0.0 if kind == 3 else float(rng.uniform(0.0, 3.0)) * (1.0 if k % 8 < 4 else 1.0 / scale)
        p = PhysicalParams(t=t, J=tuple(c[:3]), B1=c[3], B2=c[4], h=h)
        dirs = np.vstack([np.eye(6), rng.normal(size=(1, 6))])
        g, _, _ = fid._generators(p, dirs)
        for d, row in zip(dirs, g):
            want = _divided_difference_generators(p, d)
            got = np.einsum("ba,aij->bij", row, BLOCK_BASIS)
            worst = max(worst, np.max(np.abs(got - want)) / max(1.0, np.max(np.abs(want))))
    assert worst <= 1e-13


def test_time_derivatives_at_zero_time():
    # at t = 0 the block maps are exp(-i l W_k) along the time axis, so
    # Ds = -i W_k exactly
    rng = np.random.default_rng(80)
    for _ in range(50):
        p = replace(random_params(rng), t=0.0)
        frame = bell_frame(p.h)
        w = frame.change_of_basis.conj().T @ build_hamiltonian(p) @ frame.change_of_basis
        (ds1, ds2), _ = directional_derivatives(p, Perturbation.axis("t", 1.0), frame)
        for k, ds in ((0, ds1), (2, ds2)):
            wk = w[k : k + 2, k : k + 2]
            assert np.max(np.abs(ds - (-1j * wk))) < 1e-12


@pytest.mark.parametrize("tag, m, field_scale", [("CNOT_12", 8, 10.0), ("CNOT_21", 4, 3.0)])
def test_quadratic_sensitivities_on_large_field_cards(tag, m, field_scale):
    # large couplings must not degrade the derivatives: the expansion's
    # quadratic coefficients match the exact infidelity over a step small
    # enough that the cubic term is negligible
    card = cnot_family(GateId(tag), m, field_scale)
    p = card.solved
    x = np.array([p.t, *p.J, p.B1, p.B2])
    h = 1e-4 / float(np.max(np.abs(x)))
    states = sample_states(bell_frame(p.h), n=4, seed=7)
    for k, st in enumerate(states):
        sens = sensitivity_sweep(card, states[k : k + 1], [h]).gradient[0]
        exact = np.array(
            [(1.0 - fidelity_exact(st, p, Perturbation.axis(i, h))) / h**2 for i in range(6)]
        )
        assert np.max(np.abs(sens - exact)) < 1e-3 * np.max(np.abs(exact))


def test_fidelity_exact_unperturbed_is_unity():
    rng = np.random.default_rng(83)
    zero = Perturbation(dp=(0.0,) * 6)
    for _ in range(10):
        st = _random_state(rng)
        assert abs(fidelity_exact(st, BASE, zero) - 1.0) < EXACT_UNITY_TOL


def test_fidelity_exact_phase_invariance():
    rng = np.random.default_rng(89)
    st = _random_state(rng)
    dp = _random_direction(rng, 5e-3)
    f = fidelity_exact(st, BASE, dp)
    for theta in (0.7, 2.9):
        rotated = BlockState.normalized(np.exp(1j * theta) * st.amplitudes, FRAME)
        assert abs(fidelity_exact(rotated, BASE, dp) - f) < 1e-12


def test_fidelity_exact_stationary_eigenstate():
    # time-only perturbation on a block eigenstate changes only a phase
    hm = build_hamiltonian(BASE)
    w = FRAME.change_of_basis.conj().T @ hm @ FRAME.change_of_basis
    _, evecs = np.linalg.eigh(w[0:2, 0:2])
    st = _state([evecs[0, 0], evecs[1, 0], 0.0, 0.0])
    f = fidelity_exact(st, BASE, Perturbation.axis("t", 5e-2))
    assert abs(f - 1.0) < 1e-12


def test_fidelity_exact_single_block_brute_force():
    # a state confined to one block reduces to a 2x2 overlap
    rng = np.random.default_rng(97)
    v = rng.normal(size=2) + 1j * rng.normal(size=2)
    v = v / np.linalg.norm(v)
    st = _state([v[0], v[1], 0.0, 0.0])
    dp = _random_direction(rng, 4e-3)
    shifted = PhysicalParams(
        t=BASE.t + dp.dp[0],
        J=tuple(BASE.J[i] + dp.dp[1 + i] for i in range(3)),
        B1=BASE.B1 + dp.dp[4],
        B2=BASE.B2 + dp.dp[5],
        h=BASE.h,
    )
    cob = FRAME.change_of_basis

    def first_block(p):
        u = scipy.linalg.expm(-1j * p.t * build_hamiltonian(p))
        return (cob.conj().T @ u @ cob)[0:2, 0:2]

    ov = v.conj() @ first_block(BASE).conj().T @ first_block(shifted) @ v
    assert fidelity_exact(st, BASE, dp) == pytest.approx(abs(ov) ** 2, abs=1e-12)


def test_fidelity_second_order_unperturbed_is_unity():
    rng = np.random.default_rng(101)
    st = _random_state(rng)
    assert fidelity_second_order(st, BASE, Perturbation(dp=(0.0,) * 6)) == 1.0


def test_second_order_matches_exact_to_cubic_order():
    rng = np.random.default_rng(107)
    for _ in range(10):
        p = random_params(rng)
        frame = bell_frame(p.h)
        st = _random_state(rng, frame)
        dp = _random_direction(rng, 3e-3)
        half = Perturbation(dp=tuple(x / 2 for x in dp.dp))
        r_full = abs(fidelity_second_order(st, p, dp) - fidelity_exact(st, p, dp))
        r_half = abs(fidelity_second_order(st, p, half) - fidelity_exact(st, p, half))
        if r_full > 1e-12:
            assert CUBIC_RATIO_LO < r_full / r_half < CUBIC_RATIO_HI


def test_infidelity_scales_quadratically():
    rng = np.random.default_rng(109)
    for _ in range(10):
        p = random_params(rng)
        frame = bell_frame(p.h)
        st = _random_state(rng, frame)
        dp = _random_direction(rng, 1e-3)
        double = Perturbation(dp=tuple(2 * x for x in dp.dp))
        lo = 1.0 - fidelity_exact(st, p, dp)
        hi = 1.0 - fidelity_exact(st, p, double)
        if lo > 1e-10:
            assert SCALING_LO < hi / lo < SCALING_HI


def test_field_exchange_symmetry():
    # with equal drives the Hamiltonian commutes with qubit exchange, so
    # an exchange-even state responds identically to either drive; the
    # b11 component is the only odd one in this frame
    p = PhysicalParams(t=1.2, J=(0.7, -0.4, 0.9), B1=0.5, B2=0.5, h=1)
    st = _state([0.6, 0.5, 0.4, 0.0])
    for step in (1e-2, 1e-3):
        e1 = fidelity_exact(st, p, Perturbation.axis("B1", step))
        e2 = fidelity_exact(st, p, Perturbation.axis("B2", step))
        assert abs(e1 - e2) < SYMMETRY_TOL
        s1 = fidelity_second_order(st, p, Perturbation.axis("B1", step))
        s2 = fidelity_second_order(st, p, Perturbation.axis("B2", step))
        assert abs(s1 - s2) < SYMMETRY_TOL


def test_frame_mismatch_rejected():
    st = _state([1.0, 0.0, 0.0, 0.0])
    p2 = PhysicalParams(t=1.0, J=(0.5, 0.0, 0.0), B1=0.0, B2=0.0, h=2)
    with pytest.raises(ValueError):
        fidelity_exact(st, p2, Perturbation(dp=(0.0,) * 6))
    with pytest.raises(ValueError):
        directional_derivatives(p2, Perturbation(dp=(0.0,) * 6), FRAME)


def test_quadratic_sensitivities_definition():
    rng = np.random.default_rng(113)
    st = _random_state(rng)
    # the sweep's gradient is Var(G) per axis: 1 - F^2 at a unit step
    sens = [1.0 - fidelity_second_order(st, BASE, Perturbation.axis(i, 1.0)) for i in range(6)]
    g, _, _ = fid._generators(BASE, np.eye(6))
    grad = fid._variance(fid._bloch(st.amplitudes[None]), g)[0]
    assert len(grad) == 6
    for i in range(6):
        assert grad[i] == pytest.approx(sens[i], rel=1e-12)


def test_sample_states_deterministic_and_normalized():
    a = sample_states(FRAME, n=16, seed=7)
    b = sample_states(FRAME, n=16, seed=7)
    c = sample_states(FRAME, n=16, seed=8)
    assert len(a) == 16
    for st in a:
        assert abs(np.linalg.norm(st.amplitudes) - 1.0) < 1e-12
    assert all(np.array_equal(x.amplitudes, y.amplitudes) for x, y in zip(a, b))
    assert not np.array_equal(a[0].amplitudes, c[0].amplitudes)
    with pytest.raises(ValueError):
        sample_states(FRAME, n=0, seed=7)


def test_sensitivity_sweep_shape_and_reports():
    card = solve_physical(prescription_targets(GateId("H_q2")))
    frame = bell_frame(card.solved.h)
    states = sample_states(frame, n=2, seed=7)
    grid = [1e-2, 5e-3]
    reports = sensitivity_sweep(card, states, grid)
    assert len(reports) == len(states) * len(PARAM_NAMES) * len(grid)
    for r in reports:
        assert r.param in PARAM_NAMES
        assert len(r.per_parameter_gradient) == 6
        assert 0.0 <= r.f2_exact <= 1.0 + 1e-12
        assert abs(r.f2_second_order - r.f2_exact) < 1e-4


def test_sensitivity_sweep_zero_grid():
    card = solve_physical(prescription_targets(GateId("S_phi_q2", phi=0.4)))
    states = sample_states(bell_frame(card.solved.h), n=2, seed=7)
    for r in sensitivity_sweep(card, states, [0.0]):
        assert r.f2_second_order == 1.0
        assert abs(r.f2_exact - 1.0) < 1e-12


def test_sensitivity_sweep_validation():
    card = solve_physical(prescription_targets(GateId("H_q1")))
    states = sample_states(bell_frame(card.solved.h), n=2, seed=7)
    with pytest.raises(ValueError):
        sensitivity_sweep(card, states[:0], [1e-3])
    with pytest.raises(ValueError):
        sensitivity_sweep(card, states, [])
    with pytest.raises(TypeError):
        sensitivity_sweep(card, list(states), [1e-3])


def test_sensitivity_sweep_accepts_iterable_grids():
    card = solve_physical(prescription_targets(GateId("H_q2")))
    states = sample_states(bell_frame(card.solved.h), n=2, seed=7)
    want = [(r.state_id, r.param, r.f2_exact) for r in sensitivity_sweep(card, states, [1e-3, 2e-3])]
    for grid in (iter([1e-3, 2e-3]), (s for s in (1e-3, 2e-3))):
        got = sensitivity_sweep(card, states, grid)
        assert [(r.state_id, r.param, r.f2_exact) for r in got] == want


SWEEP_CARDS = {
    "H_q2": lambda: solve_physical(prescription_targets(GateId("H_q2"))),
    "S_phi_q2": lambda: solve_physical(prescription_targets(GateId("S_phi_q2", phi=0.4))),
    "CNOT_12-8-10": lambda: cnot_family(GateId("CNOT_12"), 8, 10.0),
    "CNOT_21-4-3": lambda: cnot_family(GateId("CNOT_21"), 4, 3.0),
    "CNOT_12-2-1": lambda: solve_physical(prescription_targets(GateId("CNOT_12"), m=2, m_prime=1)),
}


@pytest.mark.parametrize("name", list(SWEEP_CARDS))
def test_shared_sweep_matches_per_state_references(name):
    # the sweep shares propagators and unit-axis derivatives across states;
    # each report must still match a scipy expm overlap, and the per-state
    # expansion and the unit-axis variance to the bit, also for a negative,
    # a zero and a repeated step
    card = SWEEP_CARDS[name]()
    p = card.solved
    frame = bell_frame(p.h)
    states = sample_states(frame, n=3, seed=5)
    grid = [1e-2, -5e-3, 0.0, 1e-2]
    x0 = np.array([p.t, *p.J, p.B1, p.B2])

    def propagator(x):
        return scipy.linalg.expm(-1j * x[0] * assemble_hamiltonian(x[1:4], x[4], x[5], p.h))

    def close(got, want):
        return abs(got - want) <= 1e-12 * max(1.0, abs(want))

    u0 = propagator(x0)
    grads = [
        [1.0 - fidelity_second_order(st, p, Perturbation.axis(i, 1.0)) for i in range(6)]
        for st in states
    ]
    reports = sensitivity_sweep(card, states, grid)
    assert len(reports) == len(states) * len(PARAM_NAMES) * len(grid)
    e = fid._bloch(np.array([st.amplitudes for st in states]))
    assert reports.gradient.tobytes() == fid._variance(e, fid._generators(p, fid._UNIT_AXES)[0]).tobytes()
    for r in reports:
        st = states[r.state_id]
        i = PARAM_NAMES.index(r.param)
        step = r.dp.dp[i]
        x = x0.copy()
        x[i] += step
        psi = frame.change_of_basis @ st.amplitudes
        assert close(r.f2_exact, abs(np.vdot(u0 @ psi, propagator(x) @ psi)) ** 2)
        assert r.f2_second_order.hex() == fidelity_second_order(st, p, Perturbation.axis(r.param, step)).hex()
        assert all(close(g, want) for g, want in zip(r.per_parameter_gradient, grads[r.state_id]))


@pytest.mark.parametrize("name", list(SWEEP_CARDS))
def test_gauge_direction_has_zero_variance(name):
    # scaling t up and every coupling down by the same factor leaves U
    # unchanged, so along (t, -J1, -J2, -J3, -B1, -B2) G = t W - t W = 0
    # and Var(G) = 0 for every state; a sign or scale error in the t
    # column of the generators shows here first
    p = SWEEP_CARDS[name]().solved
    x = np.array([p.t, *p.J, p.B1, p.B2])
    d = np.concatenate([x[:1], -x[1:]])
    states = sample_states(bell_frame(p.h), n=64, seed=7)
    e = fid._bloch(np.array([st.amplitudes for st in states]))
    g, _, _ = fid._generators(p, np.vstack([d, np.eye(6)]))
    var = fid._variance(e, g)
    assert np.abs(var[:, 0]).max() <= 1e-26 * float(d @ d) * max(1.0, np.abs(x).max()) ** 2
    assert var[:, 1:].max() > 0.5


@pytest.mark.parametrize("n", [1, 64])
def test_sweep_shares_per_card_work(monkeypatch, n):
    # the optimisation's guard: a sweep works in Pauli coordinates from
    # closed forms, so it runs no eigendecomposition and builds no 4x4
    # propagator, for any number of states, steps or repeated steps
    def forbidden(*args, **kwargs):
        raise AssertionError("a sensitivity sweep must not call this")

    card = solve_physical(prescription_targets(GateId("H_q2")))
    states = sample_states(bell_frame(card.solved.h), n=n, seed=7)
    monkeypatch.setattr(np.linalg, "eigh", forbidden)
    monkeypatch.setattr(bellgate.spinlin, "expm_hermitian", forbidden)
    monkeypatch.setattr(bellgate.model, "expm_hermitian", forbidden)
    monkeypatch.setattr(bellgate.model, "evolve", forbidden)
    monkeypatch.setattr(fid, "evolve", forbidden)
    for grid in ([1e-2], [1e-2, 5e-3, 1e-2, 2.5e-3], [0.0, -0.0, 1e-2, 0.0]):
        result = sensitivity_sweep(card, states, grid)
        assert len(result) == n * 6 * len(grid)
        assert np.isfinite(result.f2_exact).all()


def test_repeated_and_signed_zero_steps_give_equal_columns():
    # every grid entry is its own column; a repeated step, and 0.0 against
    # -0.0 on controls that hold -0.0 (the displaced entry is -0.0 + 0.0 =
    # 0.0 against -0.0 + -0.0 = -0.0), give the same column bit for bit
    card = solve_physical(prescription_targets(GateId("S_phi_q2", phi=0.4)))
    card = replace(card, solved=replace(card.solved, J=(-0.0, 0.0, 1.0), B1=-0.0))
    assert math.copysign(1.0, card.solved.J[0]) == -1.0
    states = sample_states(bell_frame(card.solved.h), n=8, seed=7)
    grid = [0.0, -0.0, 1e-2, 0.0, 1e-2, -0.0]
    result = sensitivity_sweep(card, states, grid)
    for name in ("f2_exact", "f2_second_order", "cubic_residual"):
        a = getattr(result, name)
        assert a.shape == (8, 6, len(grid))
        for same in ([0, 1, 3, 5], [2, 4]):
            for j in same[1:]:
                assert a[..., j].tobytes() == a[..., same[0]].tobytes(), (name, j)


def test_block_derivatives_rows_match_one_direction():
    # the kernel's rows are independent of each other: every row equals the
    # one-direction call bit for bit, for unit axes and drawn directions
    rng = np.random.default_rng(74)
    for _ in range(20):
        p = random_params(rng)
        dirs = np.vstack([np.eye(6), rng.normal(size=(5, 6)), np.zeros((1, 6))])
        g, c, r = fid._generators(p, dirs)
        assert g.shape == (12, 2, 4) and c.shape == (2, 4) and r.shape == (2,)
        for row, d in zip(g, dirs):
            one, c1, r1 = fid._generators(p, d[None])
            assert np.array_equal(row, one[0]) and np.array_equal(c, c1) and np.array_equal(r, r1)


def test_block_derivatives_report_the_first_overflowing_row():
    # in the h = 1 frame J3 - J2 and B1 + B2 are block coefficients, so
    # each pair of opposite huge components overflows; the error carries
    # the largest component of the first such row
    dirs = np.zeros((4, 6))
    dirs[1, 0] = 1.0
    dirs[2, 2:4] = (1e308, -1e308)
    dirs[3, 4:6] = (1e308, 1e308)
    for rows, index in (([0, 1, 2, 3], 2), ([1, 3], 4)):
        with pytest.raises(NonFiniteDerivative) as info:
            fid._generators(BASE, dirs[rows])
        assert info.value.index == index


def test_second_order_reports_an_overflowing_expansion():
    # the generator along the unit direction is finite, but step^2 Var(G)
    # overflows at a step of 1e200: the typed error names the largest component
    card = solve_physical(prescription_targets(GateId("H_q2")))
    state = sample_states(bell_frame(card.solved.h), 1, 7)[0]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteDerivative) as info:
            fidelity_second_order(state, card.solved, Perturbation((0.0, 1e200, 0.0, 0.0, 0.0, 0.0)))
    assert info.value.index == 1


def _numpy_generator_map(t, c, r):
    """The generator map as numpy expressions over both blocks, the bit oracle of fid._generator_map."""
    cv = c[:, 1:]
    # a degenerate block has no axis; n = 0 leaves the map t * 1, the r -> 0 limit
    n = np.divide(cv, r[:, None], out=np.zeros_like(cv), where=r[:, None] > 0.0)
    y = (t * r)[:, None, None]
    sinc = _sinc(y)
    # sinc(2y) = sinc(y) cos(y) and (1 - cos 2y) / (2y) = y sinc(y)^2
    turn = sinc * np.cos(y)
    nn = n[:, :, None] * n[:, None, :]
    out = np.zeros((2, 4, 4))
    out[:, 0, 0] = t
    out[:, 1:, 1:] = t * (nn + turn * (np.eye(3) - nn) - y * sinc * sinc * (n @ fid._CROSS).reshape(2, 3, 3))
    return out


def _drawn_block_points(rng, count):
    """count (t, c, r) of both blocks, cycling through the regimes of the generator map.

    t = 0; |c| = 0 in block 1 and in both blocks; subnormal |c|; signed
    zeros in any coefficient; n on a coordinate axis; |c| from 1e-3 to
    1e3 and from 1e-300 to 1e300; and t |c| from 1e-8 to 1e6 wherever t
    is drawn.
    """
    kinds = np.arange(count) % 8
    c = rng.standard_normal((count, 2, 4)) * 10.0 ** rng.uniform(-300.0, 300.0, (count, 1, 1))
    c[kinds == 1, 0, 1:] = 0.0
    c[kinds == 2, :, 1:] = 0.0
    subnormal = kinds == 3
    c[subnormal, :, 1:] = rng.standard_normal((subnormal.sum(), 2, 3)) * 10.0 ** rng.uniform(
        -322.0, -309.0, (subnormal.sum(), 1, 1)
    )
    signed = (kinds == 4)[:, None, None] & (rng.random((count, 2, 4)) < 0.5)
    c[signed] = rng.choice([0.0, -0.0], size=signed.sum())
    on_axis = (kinds == 5)[:, None, None] & (np.arange(4) != rng.integers(1, 4, (count, 2, 1))) & (np.arange(4) > 0)
    c[on_axis] = rng.choice([0.0, -0.0], size=on_axis.sum())
    moderate = kinds == 6
    c[moderate] = rng.standard_normal((moderate.sum(), 2, 4)) * 10.0 ** rng.uniform(-3.0, 3.0, (moderate.sum(), 1, 1))
    r = np.hypot(np.hypot(c[..., 1], c[..., 2]), c[..., 3])
    y = 10.0 ** rng.uniform(-8.0, 6.0, count)
    for kind, ck, rk, yk in zip(kinds, c, r, y):
        rmax = float(rk.max())
        if kind == 0:
            t = 0.0
        elif rmax > 0.0:
            t = min(float(yk) / rmax, 1e300)
        else:
            t = float(yk)
        yield t, ck, rk


def test_generator_map_keeps_the_bits_of_the_numpy_map():
    # the float map computes each entry in the numpy expression's order,
    # with math.sin and math.cos, so it gives every bit the numpy map
    # gives, signed zeros included
    points = list(_drawn_block_points(np.random.default_rng(28), 20000))
    with np.errstate(all="ignore"):
        want = [_numpy_generator_map(t, c, r).tobytes() for t, c, r in points]
    got = [fid._generator_map(t, c, r).tobytes() for t, c, r in points]
    missed = [point for point, a, b in zip(points, got, want) if a != b]
    assert missed == []
    assert sum(t == 0.0 for t, _, _ in points) >= 2500
    assert sum(bool((r == 0.0).all()) for _, _, r in points) >= 2500
    assert sum(bool((r > 0.0).all() and (r < 1e-308).any()) for _, _, r in points) >= 2000


@pytest.mark.parametrize(
    "t, c",
    [
        (1e300, [[0.0, 1e300, 0.0, 0.0], [1.0, 0.5, 0.0, -0.5]]),
        (2.0, [[0.0, 1e308, 1e308, 1e308], [0.0, 0.0, 0.0, 0.0]]),
        (0.0, [[0.0, np.inf, 1.0, 1.0], [0.0, 1.0, 1.0, 1.0]]),
        (1.0, [[0.0, np.nan, 1.0, 1.0], [0.0, 1.0, 1.0, 1.0]]),
    ],
)
def test_generator_map_of_a_non_finite_phase_is_nan(t, c):
    # t |c| inf or NaN leaves the block's 3x3 part NaN, as numpy's sin
    # and cos make it, where math.sin(inf) would raise
    c = np.array(c)
    with np.errstate(all="ignore"):
        r = np.hypot(np.hypot(c[:, 1], c[:, 2]), c[:, 3])
        want = _numpy_generator_map(t, c, r)
    got = fid._generator_map(t, c, r)
    assert np.isnan(got[0, 1:, 1:]).all()
    assert np.array_equal(got, want, equal_nan=True)


@pytest.mark.parametrize("t", [1.0, 0.0])
def test_an_overflowing_solved_point_raises_non_finite_derivative(t):
    # in the h = 1 frame J3 - J2 is a block coefficient, so the solved
    # point's own |c| overflows and t |c| is inf (t = 1) or NaN (t = 0);
    # every entry point reports the typed error on axis 0, not math's
    # domain error
    p = PhysicalParams(t=t, J=(0.0, 1e308, -1e308), B1=0.0, B2=0.0, h=1)
    card = replace(solve_physical(prescription_targets(GateId("H_q2"))), solved=p)
    assert card.targets.h == 1
    states = sample_states(FRAME, n=2, seed=7)
    calls = (
        lambda: sensitivity_sweep(card, states, [1e-3]),
        lambda: rank_parameters(card),
        lambda: fidelity_second_order(states[0], p, Perturbation.axis(0, 1e-3)),
        lambda: directional_derivatives(p, Perturbation.axis(0, 1e-3), FRAME),
    )
    for call in calls:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteDerivative) as info:
                call()
        assert info.value.index == 0


@pytest.mark.parametrize("h, J", [(1, (1e300, 0.0, 0.0)), (2, (0.0, 1e300, 0.0)), (3, (0.0, 0.0, 1e300))])
def test_an_overflowing_eigenphase_has_no_directional_derivatives(h, J):
    # J_h is each frame's c0 alone, so |c| = 0 and every generator is
    # finite, but t c0 overflows: the point has no block maps, and
    # directional_derivatives raises what reduced_params raises for it
    # instead of returning NaN matrices
    p = PhysicalParams(t=1e10, J=J, B1=0.0, B2=0.0, h=h)
    frame = bell_frame(h)
    with pytest.raises(NonUnitaryError) as want:
        reduced_params(p, frame)
    for axis in range(6):
        with pytest.raises(NonUnitaryError) as info:
            directional_derivatives(p, Perturbation.axis(axis, 1.0), frame)
        assert str(info.value) == str(want.value)


def test_sweep_result_rows_and_reports_follow_the_columns():
    card = solve_physical(prescription_targets(GateId("S_phi_q2", phi=0.4)))
    states = sample_states(bell_frame(card.solved.h), n=3, seed=7)
    grid = [1e-2, -5e-3, 1e-2]
    result = sensitivity_sweep(card, states, grid)
    assert isinstance(result, SweepResult)
    assert result.card is card and result.grid == (1e-2, -5e-3, 1e-2)
    for name in ("f2_exact", "f2_second_order", "cubic_residual"):
        assert getattr(result, name).shape == (3, 6, 3)
    assert result.gradient.shape == (3, 6)
    assert len(result) == 3 * 6 * 3
    reports = list(result)
    assert len(reports) == len(result)
    want = [(sid, name, step) for sid in range(3) for name in PARAM_NAMES for step in grid]
    assert [(r.state_id, r.param, r.dp.dp[PARAM_NAMES.index(r.param)]) for r in reports] == want
    for k, r in enumerate(reports):
        sid, i, j = np.unravel_index(k, result.f2_exact.shape)
        assert r.dp == Perturbation.axis(int(i), grid[j])
        assert r.f2_exact == result.f2_exact[sid, i, j]
        assert r.f2_second_order == result.f2_second_order[sid, i, j]
        assert r.cubic_residual == result.cubic_residual[sid, i, j]
        assert r.per_parameter_gradient == tuple(result.gradient[sid])
        assert all(type(v) is float for v in (r.f2_exact, r.f2_second_order, r.cubic_residual))
    # rows() is the same walk as tuples in FidelityReport's field order
    rows = list(result.rows())
    assert rows == [tuple(getattr(r, f.name) for f in fields(FidelityReport)) for r in reports]
    sid, i, j = np.indices(result.f2_exact.shape).reshape(3, -1)
    assert [row[3] for row in rows] == result.f2_exact[sid, i, j].tolist()
    assert [row[4] for row in rows] == result.f2_second_order[sid, i, j].tolist()
    assert [row[5] for row in rows] == [tuple(g) for g in result.gradient[sid].tolist()]
    assert [row[6] for row in rows] == result.cubic_residual[sid, i, j].tolist()
    # a walk shares one Perturbation per (axis, step) and one gradient per state
    assert reports[0].dp is reports[6 * 3].dp and rows[0][2] is rows[6 * 3][2]
    assert reports[0].per_parameter_gradient is reports[17].per_parameter_gradient
    assert rows[0][5] is rows[17][5]


def test_sweep_result_arrays_are_read_only():
    card = solve_physical(prescription_targets(GateId("H_q2")))
    result = sensitivity_sweep(card, sample_states(bell_frame(card.solved.h), n=2, seed=7), [1e-2])
    for name in ("f2_exact", "f2_second_order", "cubic_residual", "gradient"):
        arr = getattr(result, name)
        assert arr.dtype == np.float64
        with pytest.raises(ValueError):
            arr[(0,) * arr.ndim] = 0.5
    with pytest.raises(AttributeError):
        result.grid = (1.0,)


@pytest.mark.parametrize(
    "tag, family, grid, error, message",
    [
        # CNOT_12's expansion overflows along J1 at 7e153 (index 1), but the
        # negative time comes first, on axis 0
        ("CNOT_12", False, [7e153, -5.0], ValueError, "t must be nonnegative"),
        ("CNOT_12", False, [7e153], NonFiniteDerivative, "non-finite derivative input at parameter index 1"),
        # on the (1, 1) family card the time axis overflows itself, before its -5
        ("CNOT_12", True, [7e153, -5.0], NonFiniteDerivative, "non-finite derivative input at parameter index 0"),
        ("CNOT_12", True, [-5.0, 7e153], ValueError, "t must be nonnegative"),
    ],
)
def test_sweep_errors_come_in_step_by_step_order(tag, family, grid, error, message):
    # per axis and step: the displaced parameters, then the expansion
    card = cnot_family(GateId(tag), 1, 1.0) if family else solve_physical(prescription_targets(GateId(tag)))
    states = sample_states(bell_frame(card.solved.h), n=4, seed=7)
    with pytest.raises(error, match=f"^{message}$"):
        sensitivity_sweep(card, states, grid)


def test_sweep_second_order_has_no_linear_term():
    # F^2 = 1 - step^2 Var(G) exactly, also on a large-field card where a
    # numerically nonzero linear coefficient would show
    card = cnot_family(GateId("CNOT_12"), 8, 10.0)
    states = sample_states(bell_frame(card.solved.h), n=8, seed=7)
    for r in sensitivity_sweep(card, states, [1e-2, 5e-3, 2.5e-3]):
        i = PARAM_NAMES.index(r.param)
        step = r.dp.dp[i]
        assert abs(r.f2_second_order - (1.0 - step * step * r.per_parameter_gradient[i])) <= 1e-15


def test_huge_step_is_finite_or_non_finite_derivative():
    # 7e153 squared is still finite, so nothing overflows before the
    # expansion itself; its value must come out finite or as the typed
    # error, with no numpy warning on the way
    card = solve_physical(prescription_targets(GateId("H_q2")))
    p = card.solved
    states = sample_states(bell_frame(p.h), n=64, seed=7)
    step = 7e153
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            reports = sensitivity_sweep(card, states, [step])
        except NonFiniteDerivative:
            reports = []
        for r in reports:
            assert all(math.isfinite(v) for v in (r.f2_exact, r.f2_second_order, r.cubic_residual))
            assert all(math.isfinite(g) for g in r.per_parameter_gradient)
        for st in states:
            for i in range(6):
                try:
                    f2 = fidelity_second_order(st, p, Perturbation.axis(i, step))
                except NonFiniteDerivative:
                    continue
                assert math.isfinite(f2)


def test_cubic_residual_shrinks_under_step_halving():
    # halving the step divides a residual a l^3 + b l^4 + ... by
    # 8 (1 + b l / a) / (1 + b l / 2a): the ratio tends to 8, and its
    # distance from 8 roughly halves with l.  Where the cubic coefficient
    # vanishes the limit is 16.  At the largest step opposite cubic and
    # quartic terms can keep the ratio far from both (4.5 on J3 below),
    # so the check follows the ratio down a ladder of steps, as far as the
    # residual stays well above the rounding of F^2
    card = solve_physical(prescription_targets(GateId("H_q2")))
    frame = bell_frame(card.solved.h)
    states = sample_states(frame, n=2, seed=7)
    ladder = [8e-3 / 2**k for k in range(6)]
    residual = sensitivity_sweep(card, states, ladder).cubic_residual
    checked = 0
    for r in residual.reshape(-1, len(ladder)):
        if r[0] <= 1e-10:
            continue
        ratios = (r[:-1] / r[1:])[r[1:] > HALVING_FLOOR]
        limit = min((8.0, 16.0), key=lambda lim: abs(ratios[-1] - lim))
        gap = np.abs(ratios - limit)
        assert len(ratios) >= 3
        assert np.all(gap[1:] <= HALVING_SHRINK * gap[:-1] + HALVING_NOISE), ratios
        assert gap[-1] < HALVING_LAST_GAP, ratios
        checked += 1
    assert checked == residual.shape[0] * 6


@pytest.mark.parametrize("seed", [3, 7, 11])
def test_rank_parameters_keeps_name_order_within_a_tie(seed):
    # on CNOT_12 (2, 1) J2 and J3 have equal sensitivities for every state;
    # J1, B1 and B2 only on average, so their sampled means differ and
    # would order them by sampling noise.  The exact means of each tie
    # differ only by rounding, and each tie lists its names in order
    card = SWEEP_CARDS["CNOT_12-2-1"]()
    result = sensitivity_sweep(card, sample_states(bell_frame(card.solved.h), n=64, seed=seed), [1e-2])
    grad = result.gradient
    assert np.abs(grad[:, 2] - grad[:, 3]).max() <= 1e-12 * grad[:, 2].max()
    sampled = grad.mean(axis=0)[[1, 4, 5]]
    assert sampled.max() - sampled.min() > RANK_TIE_TOL * sampled.max()
    ranking = rank_parameters(card)
    mean = dict(ranking)
    assert abs(mean["J2"] - mean["J3"]) <= RANK_TIE_TOL * mean["J2"]
    assert [name for name, _ in ranking] == ["B1", "B2", "J1", "t", "J2", "J3"]


def test_rank_parameters_tie_rule():
    # means within RANK_TIE_TOL of their tie's largest mean are one tie,
    # listed by name; a gap above the tolerance still orders by value
    one = 1.0 + 2.0 ** -52
    means = [0.5, 2.0, 1.0, one * one, 1.0 / one, 2.0 * (1.0 - 1e-9)]
    ranking = fid._ranked(means)
    assert [name for name, _ in ranking] == ["J1", "B2", "B1", "J2", "J3", "t"]
    assert dict(ranking) == dict(zip(PARAM_NAMES, means))


def test_rank_parameters():
    card = solve_physical(prescription_targets(GateId("H_q2")))
    ranking = rank_parameters(card)
    assert sorted(name for name, _ in ranking) == sorted(PARAM_NAMES)
    values = [v for _, v in ranking]
    assert values == sorted(values, reverse=True)
    assert all(type(v) is float for v in values)
    # the exact mean is the limit of the sampled one: 4096 states land within 2%
    states = sample_states(bell_frame(card.solved.h), n=4096, seed=7)
    sampled = sensitivity_sweep(card, states, [1e-2]).gradient.mean(axis=0)
    exact = np.array([dict(ranking)[name] for name in PARAM_NAMES])
    assert np.abs(sampled / exact - 1.0).max() < 0.02


def _mutually_unbiased_states(frame):
    """The 20 states of the five mutually unbiased bases of C^4, an exact 2-design, as one StateBatch.

    Each basis is the common eigenbasis of a commuting pair of two-qubit
    Pauli products, read off A + 2 B, which has four distinct eigenvalues.
    """
    pauli = {
        "I": np.eye(2),
        "X": np.array([[0.0, 1.0], [1.0, 0.0]]),
        "Y": np.array([[0.0, -1j], [1j, 0.0]]),
        "Z": np.diag([1.0, -1.0]),
    }

    def product(label):
        return np.kron(pauli[label[0]], pauli[label[1]])

    vecs = []
    for a, b in (("ZI", "IZ"), ("XI", "IX"), ("YI", "IY"), ("XY", "YZ"), ("XZ", "YX")):
        _, v = np.linalg.eigh(product(a) + 2.0 * product(b))
        vecs.extend(v.T)
    # |<u|v>|^2 is 1 on the diagonal, 0 within a basis and 1/4 across bases
    basis = np.arange(20) // 4
    want = np.where(basis[:, None] == basis[None], np.eye(20), 0.25)
    assert np.abs(np.abs(np.conj(vecs) @ np.transpose(vecs)) ** 2 - want).max() < 1e-14
    return StateBatch([BlockState.normalized(v, frame).amplitudes for v in vecs], frame)


@pytest.mark.parametrize("name", list(SWEEP_CARDS))
def test_rank_parameters_is_the_mean_over_a_2_design(name):
    # the mean of Var(G) over a 2-design equals its average over the
    # unit sphere, which rank_parameters computes in closed form
    card = SWEEP_CARDS[name]()
    states = _mutually_unbiased_states(bell_frame(card.solved.h))
    mean = sensitivity_sweep(card, states, [1e-2]).gradient.mean(axis=0)
    exact = dict(rank_parameters(card))
    for i, param in enumerate(PARAM_NAMES):
        assert abs(mean[i] - exact[param]) <= 1e-12 * abs(exact[param])


def test_negative_seed_fails_in_the_generator():
    with pytest.raises(ValueError) as got:
        sample_states(bell_frame(1), 2, -1)
    with pytest.raises(ValueError) as want:
        np.random.default_rng(-1)
    assert str(got.value) == str(want.value)
