"""The numpy-only state sampler against scipy, its test oracle, bit for bit."""

import math

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import qmc

from bellgate import bell_frame, sample_states
from bellgate.sobol import ndtri, sobol_points


def _bits(x) -> bytes:
    return np.asarray(x, dtype=np.float64).tobytes()


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**64 - 1), st.integers(0, 10))
def test_points_equal_scipy_sobol(seed, m):
    want = qmc.Sobol(d=8, scramble=True, seed=seed).random_base2(m)
    got = sobol_points(m, seed)
    assert got.shape == want.shape == (2**m, 8)
    assert _bits(got) == _bits(want)


_OPEN_UNIT = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
_LOWER_TAIL = st.floats(2.0, 300.0).map(lambda e: 10.0**-e)
_UPPER_TAIL = st.floats(1.0, 16.0).map(lambda e: 1.0 - 10.0**-e)


@settings(max_examples=500, deadline=None)
@given(st.one_of(_OPEN_UNIT, _LOWER_TAIL, _UPPER_TAIL))
def test_ndtri_equals_scipy_bitwise(y):
    assert 0.0 < y < 1.0
    assert _bits(ndtri(y)) == _bits(scipy.special.ndtri(y))


def test_ndtri_on_the_sampled_points_and_the_ends():
    y = np.concatenate([sobol_points(10, seed).ravel() for seed in range(4)])
    y = y[(y > 0.0) & (y < 1.0)]
    assert _bits([ndtri(v) for v in y.tolist()]) == _bits(scipy.special.ndtri(y))
    assert ndtri(0.0) == -math.inf and ndtri(1.0) == math.inf
    for bad in (-0.5, 1.5, math.nan):
        with pytest.raises(ValueError):
            ndtri(bad)


def _scipy_amplitudes(n, seed):
    """Normalized amplitudes of the scipy recipe sample_states reproduces."""
    sob = qmc.Sobol(d=8, scramble=True, seed=seed)
    z = scipy.special.ndtri(sob.random_base2(max(1, math.ceil(math.log2(n)))))[:n]
    vecs = z[:, 0:4] + 1j * z[:, 4:8]
    return [v / float(np.linalg.norm(v)) for v in vecs]


@pytest.mark.parametrize("seed", [0, 1, 3, 7, 8, 42, 12345])
def test_sample_states_are_byte_identical_to_the_scipy_recipe(seed):
    frame = bell_frame(2)
    for n in (1, 2, 3, 5, 16, 63, 64, 65, 200):
        got = [s.amplitudes.tobytes() for s in sample_states(frame, n, seed)]
        want = [v.tobytes() for v in _scipy_amplitudes(n, seed)]
        assert got == want, (seed, n)


def test_negative_seed_fails_in_the_generator():
    with pytest.raises(ValueError) as got:
        sample_states(bell_frame(1), 2, -1)
    with pytest.raises(ValueError) as want:
        np.random.default_rng(-1)
    assert str(got.value) == str(want.value)
