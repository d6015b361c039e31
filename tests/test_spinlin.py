"""Pauli algebra, Hermitian propagators, and unitary distances."""

import cmath
import math

import mpmath
import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from bellgate import (
    NonHermitianError,
    NonUnitaryError,
    dist_phase_invariant,
    dist_unitary,
    expm_hermitian,
    pauli,
)
from conftest import random_unitary

UNITARY_TOL = 1e-12
EXPM_ORACLE_TOL = 1e-11
PHASE_TOL = 1e-13

SIGMA_1 = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_2 = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_3 = np.array([[1, 0], [0, -1]], dtype=complex)


def _random_hermitian(seed, n=4):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return a + a.conj().T


def test_pauli_literals():
    assert np.array_equal(pauli(1), SIGMA_1)
    assert np.array_equal(pauli(2), SIGMA_2)
    assert np.array_equal(pauli(3), SIGMA_3)


@pytest.mark.parametrize("k", [0, -1, 4, True, 1.0])
def test_pauli_rejects_out_of_range(k):
    with pytest.raises(ValueError):
        pauli(k)


def test_pauli_returns_fresh_array():
    a = pauli(1)
    a[0, 0] = 99.0
    assert pauli(1)[0, 0] == 0.0


def test_pauli_algebra():
    # sigma_1 sigma_2 = i sigma_3 and cyclic permutations
    assert np.allclose(pauli(1) @ pauli(2), 1j * pauli(3))
    assert np.allclose(pauli(2) @ pauli(3), 1j * pauli(1))
    assert np.allclose(pauli(3) @ pauli(1), 1j * pauli(2))
    for k in (1, 2, 3):
        assert np.allclose(pauli(k) @ pauli(k), np.eye(2))


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10**6))
def test_expm_hermitian_is_unitary_and_matches_pade(seed):
    rng = np.random.default_rng(seed)
    hm = _random_hermitian(seed)
    t = float(rng.uniform(0.0, 3.0))
    u = expm_hermitian(hm, t)
    assert dist_unitary(u) < UNITARY_TOL
    ref = scipy.linalg.expm(-1j * t * hm)
    assert np.max(np.abs(u - ref)) < EXPM_ORACLE_TOL


def test_expm_hermitian_zero_scale_is_identity():
    u = expm_hermitian(_random_hermitian(11), 0.0)
    assert np.max(np.abs(u - np.eye(4))) < UNITARY_TOL


def test_expm_hermitian_composes():
    hm = _random_hermitian(5)
    u1 = expm_hermitian(hm, 0.7)
    u2 = expm_hermitian(hm, 1.6)
    u12 = expm_hermitian(hm, 2.3)
    assert np.max(np.abs(u1 @ u2 - u12)) < 1e-10


def test_expm_hermitian_rejects_nonhermitian():
    bad = _random_hermitian(7)
    bad[0, 1] += 1.0
    with pytest.raises(NonHermitianError):
        expm_hermitian(bad)


@pytest.mark.parametrize("shape", [(3, 4, 4), (4, 3), (4,), ()], ids=["stack", "rectangle", "vector", "scalar"])
def test_expm_hermitian_takes_one_square_matrix(shape):
    with pytest.raises(ValueError, match="one square matrix"):
        expm_hermitian(np.zeros(shape), 1.0)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, complex(0.0, np.inf)])
@pytest.mark.parametrize("entry", [(0, 0), (1, 2)], ids=["diagonal", "off-diagonal"])
def test_expm_hermitian_rejects_non_finite_entries(value, entry):
    # a NaN asymmetry compares False against any tolerance, and inf - inf
    # is NaN; neither may pass as Hermitian or leak a RuntimeWarning
    one = np.eye(4, dtype=complex)
    one[entry] = value
    with pytest.raises(NonHermitianError) as info:
        expm_hermitian(one, 1.0)
    assert not np.isfinite(info.value.asymmetry)


@pytest.mark.parametrize("scale", [1e308, -1e308, np.inf, np.nan])
def test_expm_hermitian_rejects_an_overflowing_phase(scale):
    # the phase scale * w of eigenvalue 3 overflows; exp would turn it into a
    # NaN matrix and two RuntimeWarnings, so it raises before exp instead
    hm = np.diag([3.0, -1.0, -1.0, -1.0])
    with pytest.raises(NonUnitaryError) as info:
        expm_hermitian(hm, scale)
    assert info.value.defect == np.inf


def test_expm_hermitian_takes_the_largest_finite_phase():
    # a phase that stays finite is no error however large, and a zero
    # matrix has zero phase at any finite scale
    u = expm_hermitian(np.diag([1.0, -1.0, 0.5, 0.0]), 1.5e308)
    assert np.isfinite(u).all() and dist_unitary(u) < UNITARY_TOL
    assert np.array_equal(expm_hermitian(np.zeros((4, 4)), 1e308), np.eye(4))


def test_dist_unitary_zero_for_unitary():
    assert dist_unitary(np.eye(4)) < 1e-15
    assert dist_unitary(np.kron(SIGMA_1, SIGMA_2)) < 1e-15


def test_dist_unitary_detects_scaling():
    assert dist_unitary(2.0 * np.eye(4)) > 1.0


def test_dist_phase_invariant_quotient():
    rng = np.random.default_rng(13)
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    q, r = np.linalg.qr(a)
    u = q * (np.diag(r) / np.abs(np.diag(r)))
    for theta in (0.0, 0.4, np.pi, -2.2):
        assert dist_phase_invariant(u, np.exp(1j * theta) * u) < PHASE_TOL


def test_dist_phase_invariant_separates_distinct_gates():
    x1 = np.kron(SIGMA_1, np.eye(2))
    assert dist_phase_invariant(x1, np.eye(4)) > 0.5


def test_dist_phase_invariant_rejects_nonunitary():
    with pytest.raises(NonUnitaryError):
        dist_phase_invariant(np.eye(4) * 1.5, np.eye(4))


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, complex(0.0, np.inf)])
@pytest.mark.parametrize("first", [True, False], ids=["first", "second"])
def test_dist_phase_invariant_rejects_non_finite_entries(value, first):
    # a NaN defect compares False against any tolerance, and max() drops a
    # NaN in second place; neither may pass as unitary or leak a RuntimeWarning
    bad = np.eye(4, dtype=complex)
    bad[1, 2] = value
    args = (bad, np.eye(4)) if first else (np.eye(4), bad)
    with pytest.raises(NonUnitaryError) as info:
        dist_phase_invariant(*args)
    assert not np.isfinite(info.value.defect)


def test_dist_phase_invariant_takes_an_underflowing_phase():
    # arg tr(a^dag b) underflows to a subnormal; cmath.phase raised
    # OverflowError on it, the distance is 0 to the last bit
    b = np.eye(4, dtype=complex)
    b[0, 0] = complex(1.0, 5e-324)
    assert dist_phase_invariant(np.eye(4), b) == 0.0
    assert dist_phase_invariant(b, np.eye(4)) == 0.0


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1), st.floats(-12.0, 0.0), st.booleans())
def test_dist_phase_invariant_matches_the_cmath_phase_form(seed, log_eps, near):
    # the atan2 phase gives the bits of exp(i cmath.phase(tr(a^dag b))) wherever that one is defined
    a, b = _near_pair(seed, 10.0**log_eps) if near else (
        random_unitary(np.random.default_rng(seed)),
        random_unitary(np.random.default_rng(seed + 1)),
    )
    d = cmath.exp(1j * cmath.phase(np.vdot(a, b))) * a - b
    assert dist_phase_invariant(a, b) == float(np.vdot(d, d).real) / 8


def _near_pair(seed, eps):
    """A unitary a and a copy b = e^{i phi} a exp(-i eps H), at a distance of order eps^2."""
    rng = np.random.default_rng(seed)
    a = random_unitary(rng)
    phi = float(rng.uniform(-np.pi, np.pi))
    return a, np.exp(1j * phi) * a @ expm_hermitian(_random_hermitian(seed), eps)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1), st.floats(-12.0, 0.0), st.booleans())
def test_dist_phase_invariant_is_never_negative(seed, log_eps, near):
    # random pairs and near-equal pairs down to rounding; the trace form
    # 1 - |tr(a^dag b)| / n returned noise of either sign there
    a, b = _near_pair(seed, 10.0**log_eps) if near else (
        random_unitary(np.random.default_rng(seed)),
        random_unitary(np.random.default_rng(seed + 1)),
    )
    assert dist_phase_invariant(a, b) >= 0.0
    assert dist_phase_invariant(a, a) == 0.0


def _mp_distance(a, b):
    """60-digit oracle: min over theta of ||e^{i theta} a - b||_F^2 / (2n) of the given float matrices."""
    with mpmath.workdps(60):
        za = [mpmath.mpc(complex(z)) for z in a.ravel()]
        zb = [mpmath.mpc(complex(z)) for z in b.ravel()]
        tr = mpmath.fsum(mpmath.conj(x) * y for x, y in zip(za, zb))
        rot = mpmath.expjpi(mpmath.arg(tr) / mpmath.pi)
        return mpmath.fsum(abs(rot * x - y) ** 2 for x, y in zip(za, zb)) / (2 * a.shape[0])


@pytest.mark.parametrize("log_eps", [-10.0, -8.0, -6.0, -4.0])
def test_dist_phase_invariant_against_60_digit_oracle(log_eps):
    # distances from about 1e-20 to 1e-8; each rounding of e^{i theta} a - b
    # costs about eps * |d|, so the bound grows with the square root of
    # the distance
    for seed in range(5):
        a, b = _near_pair(seed, 10.0**log_eps)
        want = _mp_distance(a, b)
        assert 1e-22 < want < 1e-7
        got = dist_phase_invariant(a, b)
        assert abs(got - want) <= 1e-15 * mpmath.sqrt(want)


# expm_hermitian and dist_unitary take their 2-D products through ndarray.dot
# and dist_unitary subtracts a shared identity; these oracles are the @ and
# np.eye forms they replaced, and must agree to the bit, signed zeros included.


def _expm_oracle(hm, scale):
    w, v = np.linalg.eigh(hm)
    return (v * np.exp(-1j * scale * w)) @ v.conj().T


def _dist_unitary_oracle(u):
    return float(np.abs(u.conj().T @ u - np.eye(u.shape[0])).max())


#: entry magnitudes: zero (a signed zero after the product), subnormal, and up to 1e300
MAGNITUDES = st.one_of(st.sampled_from([0.0, 5e-324, 1e-300, 1.0, 1e150, 1e300]), st.floats(1e-300, 1e300))
#: scales: t = 0 of either sign, tiny, large, and finite beyond every phase (raises)
SCALES = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, 1.0, 1e6, 1e300]), st.floats(-1e3, 1e3))


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 4), MAGNITUDES, SCALES)
def test_expm_hermitian_matches_the_matmul_product(seed, n, magnitude, scale):
    hm = _random_hermitian(seed, n) * magnitude
    try:
        got = expm_hermitian(hm, scale)
    except NonUnitaryError:
        # a phase that overflows has no propagator in either form
        w = np.linalg.eigvalsh(hm).tolist()
        assert not (math.isfinite(scale * w[0]) and math.isfinite(scale * w[-1]))
        return
    assert got.tobytes() == _expm_oracle(hm, scale).tobytes()


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([2, 4]), MAGNITUDES, st.booleans(), st.booleans())
def test_dist_unitary_matches_the_eye_form(seed, n, magnitude, unitary, zero_row):
    # unitary inputs, at a rounding-level defect, and scaled random ones up to
    # overflow (an inf or NaN defect); a zero row gives signed zeros in u^dag u
    rng = np.random.default_rng(seed)
    if unitary:
        u = random_unitary(rng, n)
    else:
        u = (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))) * magnitude
    if zero_row:
        u[int(rng.integers(n))] *= -0.0
    with np.errstate(over="ignore", invalid="ignore"):
        want = _dist_unitary_oracle(u)
        got = dist_unitary(u)
        assert np.float64(got).tobytes() == np.float64(want).tobytes()
        # and on a transposed view, which reaches BLAS with the other layout
        assert np.float64(dist_unitary(u.T)).tobytes() == np.float64(_dist_unitary_oracle(u.T)).tobytes()


@pytest.mark.parametrize(
    "value, message",
    [
        (np.nan, "matrix is not Hermitian: max |m - m^dag| = nan"),
        (np.inf, "matrix is not Hermitian: max |m - m^dag| = nan"),
        (complex(0.0, np.inf), "matrix is not Hermitian: max |m - m^dag| = inf"),
    ],
)
def test_expm_hermitian_non_finite_errors_keep_their_messages(value, message):
    one = np.eye(4, dtype=complex)
    one[0, 0] = value
    with pytest.raises(NonHermitianError) as info:
        expm_hermitian(one, 1.0)
    assert str(info.value) == message


def test_expm_hermitian_overflowing_phase_keeps_its_message():
    with pytest.raises(NonUnitaryError) as info:
        expm_hermitian(np.diag([3.0, -1.0, -1.0, -1.0]), 1e308)
    assert str(info.value) == "matrix is not unitary: max |u^dag u - 1| = inf"


@pytest.mark.parametrize("n", [2, 4])
@pytest.mark.parametrize(
    "value, message",
    [
        (np.nan, "matrix is not unitary: max |u^dag u - 1| = nan"),
        (np.inf, "matrix is not unitary: max |u^dag u - 1| = nan"),
        (1e200, "matrix is not unitary: max |u^dag u - 1| = inf"),
    ],
)
def test_dist_phase_invariant_non_finite_errors_keep_their_messages(n, value, message):
    bad = np.eye(n, dtype=complex)
    bad[1, 0] = value
    for args in ((bad, np.eye(n)), (np.eye(n), bad)):
        with pytest.raises(NonUnitaryError) as info:
            dist_phase_invariant(*args)
        assert str(info.value) == message
