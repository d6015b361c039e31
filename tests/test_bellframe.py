"""Bell frames: pairings, block structure, and the reduced closed form.

The coefficient tables and sign conventions asserted here were expanded by
hand from the two-spin Hamiltonian and are kept as frozen literals; the
tests check the package against them rather than the other way around.
"""

import itertools
import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from bellgate import (
    LABELS,
    PhysicalParams,
    bell_change_of_basis,
    bell_frame,
    bell_state,
    build_hamiltonian,
    closed_form_block,
    evolve,
    frame_permutation,
    pauli,
    reduced_params,
    to_blocks,
)

from conftest import random_params

STRUCTURAL_TOL = 1e-10
MISMATCH_FLOOR = 1e-3
ROUND_TRIP_TOL = 1e-9
NORMALIZATION_TOL = 1e-12

SQ2 = 1.0 / np.sqrt(2.0)

# |b_ij> = (|0 j> + (-1)^i |1 1^j>) / sqrt(2), computational order 00,01,10,11
BELL_VECTORS = {
    (0, 0): np.array([SQ2, 0, 0, SQ2]),
    (0, 1): np.array([0, SQ2, SQ2, 0]),
    (1, 0): np.array([SQ2, 0, 0, -SQ2]),
    (1, 1): np.array([0, SQ2, -SQ2, 0]),
}

PAIRINGS = {
    1: (("b00", "b01"), ("b10", "b11")),
    2: (("b00", "b11"), ("b01", "b10")),
    3: (("b00", "b10"), ("b01", "b11")),
}

SIGNS = {
    # h: (alpha, beta, q), one entry per block
    1: ((-1, 1), (-1, 1), (-1, 1)),
    2: ((1, -1), (1, 1), (-1, -1)),
    3: ((-1, 1), (-1, 1), (-1, 1)),
}

PERMUTATIONS = {1: [0, 1, 2, 3], 2: [0, 3, 1, 2], 3: [0, 2, 1, 3]}

# Generic couplings for rebuilding the pairing from the Hamiltonian; three
# sets so that an accidental zero in one draw cannot hide a coupling.
SCAN_SETS = (
    ((0.9137, 1.3819, 0.5743), 1.1291, 0.7873),
    ((1.7002, 0.6173, 1.1311), 0.8317, 1.4129),
    ((0.4701, 1.0903, 0.9241), 1.2741, 0.5527),
)

# Couplings that make one block's |c| vanish, expanded by hand:
# (h, block) -> (a, b, sJ, sB) with J[b] = sJ * J[a] and B2 = sB * B1.
DEGENERATE = {
    (1, 1): (1, 2, 1, -1),
    (1, 2): (1, 2, -1, 1),
    (2, 1): (0, 2, -1, 1),
    (2, 2): (0, 2, 1, -1),
    (3, 1): (0, 1, 1, -1),
    (3, 2): (0, 1, -1, 1),
}

# Restriction of H onto each block as (c0, cz, cx, cy) for
# J=(0.3, -0.7, 1.1), B1=0.4, B2=-0.2, expanded by hand.
FROZEN_J = (0.3, -0.7, 1.1)
FROZEN_B1 = 0.4
FROZEN_B2 = -0.2
FROZEN_COEFFS = {
    1: [(0.3, 1.8, -0.2, 0.0), (-0.3, 0.4, 0.6, 0.0)],
    2: [(0.7, 1.4, 0.0, 0.6), (-0.7, -0.8, 0.0, 0.2)],
    3: [(1.1, 1.0, -0.2, 0.0), (-1.1, -0.4, -0.6, 0.0)],
}

# In-plane axis components attached to each frame: b reads off the
# (sin, cos) combination below, j reads off the z component.
SIN_H = {1: 1.0, 2: 0.0, 3: -1.0}
COS_H = {1: 0.0, 2: -1.0, 3: 0.0}


def _pauli_components(sub):
    c0 = np.trace(sub).real / 2.0
    cvec = np.array([np.trace(sub @ pauli(k)).real / 2.0 for k in (1, 2, 3)])
    return c0, cvec


def _block_hamiltonians(p, frame):
    hm = build_hamiltonian(p)
    w = frame.change_of_basis.conj().T @ hm @ frame.change_of_basis
    return w[0:2, 0:2], w[2:4, 2:4]


def test_bell_state_literals():
    for (i, j), vec in BELL_VECTORS.items():
        assert np.max(np.abs(bell_state(i, j) - vec)) < 1e-15


def test_bell_state_rejects_bad_indices():
    with pytest.raises(ValueError):
        bell_state(2, 0)
    with pytest.raises(ValueError):
        bell_state(0, -1)


def test_change_of_basis_columns_are_bell_states():
    cob = bell_change_of_basis()
    for col, label in enumerate(LABELS):
        i, j = int(label[1]), int(label[2])
        assert np.max(np.abs(cob[:, col] - BELL_VECTORS[(i, j)])) < 1e-15
    assert np.max(np.abs(cob.conj().T @ cob - np.eye(4))) < 1e-15


@pytest.mark.parametrize("h", [1, 2, 3])
def test_pairings(h):
    assert bell_frame(h).pairing == PAIRINGS[h]


@pytest.mark.parametrize("h", [1, 2, 3])
def test_block_one_contains_b00(h):
    assert "b00" in bell_frame(h).pairing[0]


@pytest.mark.parametrize("h", [1, 2, 3])
def test_sign_tables(h):
    fr = bell_frame(h)
    alpha, beta, q = SIGNS[h]
    assert fr.alpha == alpha
    assert fr.beta == beta
    assert fr.q == q


@pytest.mark.parametrize("h", [1, 2, 3])
def test_frame_permutation(h):
    fr = bell_frame(h)
    assert frame_permutation(fr) == PERMUTATIONS[h]
    # column k of the frame's change of basis holds the Bell state named
    # by position k of the flattened pairing
    flat = [lab for pair in fr.pairing for lab in pair]
    for k, label in enumerate(flat):
        i, j = int(label[1]), int(label[2])
        assert np.max(np.abs(fr.change_of_basis[:, k] - BELL_VECTORS[(i, j)])) < 1e-15


@pytest.mark.parametrize("h", [0, 4, -1])
def test_bell_frame_rejects_bad_axis(h):
    with pytest.raises(ValueError):
        bell_frame(h)


@pytest.mark.parametrize("h", [1, 2, 3])
def test_frozen_restriction_coefficients(h):
    fr = bell_frame(h)
    p = PhysicalParams(t=1.0, J=FROZEN_J, B1=FROZEN_B1, B2=FROZEN_B2, h=h)
    for blk, sub in enumerate(_block_hamiltonians(p, fr)):
        c0, cvec = _pauli_components(sub)
        e0, ez, ex, ey = FROZEN_COEFFS[h][blk]
        assert abs(c0 - e0) < 1e-13
        assert abs(cvec[2] - ez) < 1e-13
        assert abs(cvec[0] - ex) < 1e-13
        assert abs(cvec[1] - ey) < 1e-13


def test_restriction_is_exact_split():
    # conjugated Hamiltonian carries no off-block weight for any h
    rng = np.random.default_rng(17)
    for _ in range(60):
        p = random_params(rng)
        fr = bell_frame(p.h)
        hm = build_hamiltonian(p)
        w = fr.change_of_basis.conj().T @ hm @ fr.change_of_basis
        assert np.max(np.abs(w[0:2, 2:4])) < 1e-14
        assert np.max(np.abs(w[2:4, 0:2])) < 1e-14


def test_matched_frame_off_block_weight():
    rng = np.random.default_rng(29)
    for _ in range(100):
        p = random_params(rng)
        _, _, off = to_blocks(evolve(p), bell_frame(p.h))
        assert off < STRUCTURAL_TOL


def test_mismatched_frame_off_block_weight():
    rng = np.random.default_rng(31)
    count = 0
    for _ in range(100):
        p = random_params(rng)
        for h in (1, 2, 3):
            if h == p.h:
                continue
            _, _, off = to_blocks(evolve(p), bell_frame(h))
            assert off > MISMATCH_FLOOR
            count += 1
    assert count == 200


def test_to_blocks_reassembles():
    rng = np.random.default_rng(37)
    p = random_params(rng)
    fr = bell_frame(p.h)
    u = evolve(p)
    b1, b2, _ = to_blocks(u, fr)
    w = np.zeros((4, 4), dtype=complex)
    w[0:2, 0:2] = b1
    w[2:4, 2:4] = b2
    back = fr.change_of_basis @ w @ fr.change_of_basis.conj().T
    assert np.max(np.abs(back - u)) < 1e-12


def test_reduced_params_against_block_hamiltonian():
    # independent read-off: project each block Hamiltonian onto the Pauli
    # basis and reconstruct the reduced angles and axis components
    rng = np.random.default_rng(43)
    for _ in range(200):
        p = random_params(rng)
        fr = bell_frame(p.h)
        rps = reduced_params(p, fr)
        for k, sub in enumerate(_block_hamiltonians(p, fr)):
            c0, cvec = _pauli_components(sub)
            r = np.linalg.norm(cvec)
            rp = rps[k]
            assert rp.block == k + 1
            assert abs(rp.delta_plus - (-c0 * p.t)) < 1e-12
            assert abs(rp.delta_minus - r * p.t) < 1e-12
            assert rp.delta_minus >= 0.0
            if r > 1e-9:
                n = cvec / r
                assert abs(rp.j - fr.beta[k] * n[2]) < 1e-12
                expected_b = fr.q[k] * (n[0] * SIN_H[p.h] + n[1] * COS_H[p.h])
                assert abs(rp.b - expected_b) < 1e-12


def test_reduced_params_normalization():
    rng = np.random.default_rng(47)
    for _ in range(300):
        p = random_params(rng)
        for rp in reduced_params(p, bell_frame(p.h)):
            assert abs(rp.b**2 + rp.j**2 - 1.0) < NORMALIZATION_TOL


def test_reduced_params_have_no_negative_zero():
    # a vanishing trace part or field component must print as 0.0, not -0.0
    base = (0.7, -0.4, 0.9, 0.3, -0.6)
    for h, t in itertools.product((1, 2, 3), (0.0, 1.2)):
        for mask in itertools.product((False, True), repeat=5):
            c = [0.0 if zeroed else v for v, zeroed in zip(base, mask)]
            p = PhysicalParams(t=t, J=tuple(c[:3]), B1=c[3], B2=c[4], h=h)
            for rp in reduced_params(p, bell_frame(h)):
                for v in (rp.delta_plus, rp.delta_minus, rp.b, rp.j):
                    assert math.copysign(1.0, v) > 0 or v != 0.0


def test_closed_form_round_trip():
    rng = np.random.default_rng(53)
    for _ in range(200):
        p = random_params(rng)
        fr = bell_frame(p.h)
        b1, b2, _ = to_blocks(evolve(p), fr)
        rp1, rp2 = reduced_params(p, fr)
        assert np.max(np.abs(closed_form_block(rp1, fr) - b1)) < ROUND_TRIP_TOL
        assert np.max(np.abs(closed_form_block(rp2, fr) - b2)) < ROUND_TRIP_TOL


def test_opposite_drift_phases():
    # the two blocks always carry opposite trace parts
    rng = np.random.default_rng(59)
    for _ in range(100):
        p = random_params(rng)
        rp1, rp2 = reduced_params(p, bell_frame(p.h))
        assert abs(rp1.delta_plus + rp2.delta_plus) < 1e-12


def test_degenerate_block_convention():
    # zero couplings: no rotation, axis defaults to (b, j) = (0, 1)
    p = PhysicalParams(t=2.0, J=(0.0, 0.0, 0.0), B1=0.0, B2=0.0, h=1)
    fr = bell_frame(1)
    for rp in reduced_params(p, fr):
        assert rp.delta_minus == 0.0
        assert rp.b == 0.0
        assert rp.j == 1.0
        assert np.max(np.abs(closed_form_block(rp, fr) - np.eye(2))) < 1e-15


def test_partially_degenerate_block():
    # h=1 with only J1 on: block 1 rotates trivially but drifts in phase
    p = PhysicalParams(t=1.3, J=(0.8, 0.0, 0.0), B1=0.0, B2=0.0, h=1)
    fr = bell_frame(1)
    rp1, _ = reduced_params(p, fr)
    assert rp1.delta_minus == 0.0
    assert rp1.j == 1.0
    assert abs(rp1.delta_plus + 0.8 * 1.3) < 1e-14
    b1, _, _ = to_blocks(evolve(p), fr)
    assert np.max(np.abs(closed_form_block(rp1, fr) - b1)) < 1e-12


def test_reduced_params_frame_mismatch_rejected():
    p = PhysicalParams(t=1.0, J=(0.5, 0.0, 0.0), B1=0.0, B2=0.0, h=1)
    with pytest.raises(ValueError):
        reduced_params(p, bell_frame(2))


@pytest.mark.parametrize("h", [1, 2, 3])
def test_scan_rebuilds_frame_order(h):
    # the pairing is the pair of connected components of the Bell-basis
    # coupling graph |Q^dag H Q| > 1e-9 over generic couplings
    q = bell_change_of_basis()
    adj = np.eye(4, dtype=bool)
    for J, b1, b2 in SCAN_SETS:
        hm = build_hamiltonian(PhysicalParams(t=1.0, J=J, B1=b1, B2=b2, h=h))
        adj |= np.abs(q.conj().T @ hm @ q) > 1e-9
    reach = np.linalg.matrix_power(adj.astype(int), 3) > 0
    comps = sorted({tuple(np.flatnonzero(row)) for row in reach})
    assert [len(c) for c in comps] == [2, 2]
    assert list(comps[0] + comps[1]) == frame_permutation(bell_frame(h))


@st.composite
def _edge_params(draw):
    h = draw(st.integers(1, 3))
    scale = 10.0 ** draw(st.floats(-3.0, 3.0))
    c = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=5, max_size=5))) * scale
    kind = draw(st.sampled_from(["generic", "degenerate", "near"]))
    block = draw(st.integers(1, 2)) if kind != "generic" else None
    if block is not None:
        a, b, s_j, s_b = DEGENERATE[(h, block)]
        c[b] = s_j * c[a]
        c[4] = s_b * c[3]
    if kind == "near":
        nudge = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=5, max_size=5)))
        c += nudge * scale * 10.0 ** draw(st.floats(-16.0, -6.0))
    t = draw(st.one_of(st.just(0.0), st.floats(0.0, 3.0)))
    p = PhysicalParams(t=t, J=tuple(c[:3]), B1=c[3], B2=c[4], h=h)
    return p, block if kind == "degenerate" else None


@settings(max_examples=300, deadline=None)
@given(_edge_params())
def test_closed_form_matches_expm_oracle(case):
    # degenerate, near-degenerate and large-coupling blocks against scipy's
    # Pade exponential of the full Hamiltonian
    p, degenerate = case
    fr = bell_frame(p.h)
    u = scipy.linalg.expm(-1j * p.t * build_hamiltonian(p))
    b1, b2, _ = to_blocks(u, fr)
    rp1, rp2 = reduced_params(p, fr)
    if degenerate is not None:
        assert (rp1, rp2)[degenerate - 1].delta_minus == 0.0
    assert np.max(np.abs(closed_form_block(rp1, fr) - b1)) < ROUND_TRIP_TOL
    assert np.max(np.abs(closed_form_block(rp2, fr) - b2)) < ROUND_TRIP_TOL
