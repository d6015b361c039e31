"""Bell frames: pairings, block structure, and the reduced closed form.

The coefficient tables and sign conventions asserted here were expanded by
hand from the two-spin Hamiltonian and are kept as frozen literals; the
tests check the package against them rather than the other way around.
"""

import itertools
import math
import re
import sys

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bellgate import (
    LABELS,
    BellgateError,
    GateId,
    NonUnitaryError,
    Perturbation,
    PhysicalParams,
    ReducedBlockParams,
    bell_change_of_basis,
    bell_frame,
    build_hamiltonian,
    calib,
    closed_form_block,
    d_gate,
    directional_derivatives,
    evolve,
    frame_permutation,
    pauli,
    reduced_params,
    to_blocks,
)
from bellgate.bellframe import (
    _COEFF_MAP,
    _TRANSVERSAL,
    _TRANSVERSAL_SIGN,
    BLOCK_COEFFS,
    _block_coefficients,
    _block_maps,
    _point_coefficients,
    _reduced,
    _rotations,
    block_axis,
)
from bellgate.checks import UNIT_CIRCLE_TOL

from conftest import DEGENERATE, edge_params, random_params, random_unitary

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
    cob = bell_change_of_basis()
    for (i, j), vec in BELL_VECTORS.items():
        assert np.max(np.abs(cob[:, 2 * i + j] - vec)) < 1e-15


def test_change_of_basis_columns_are_bell_states():
    cob = bell_change_of_basis()
    for col, label in enumerate(LABELS):
        i, j = int(label[1]), int(label[2])
        assert np.max(np.abs(cob[:, col] - BELL_VECTORS[(i, j)])) < 1e-15
    assert np.max(np.abs(cob.conj().T @ cob - np.eye(4))) < 1e-15
    # a fresh copy each call: writing into one leaves the next intact
    cob[0, 0] = 5.0
    assert bell_change_of_basis()[0, 0] == SQ2


def _bell_oracle():
    # |b_ij> built entry by entry from its formula, divided as a complex vector
    columns = []
    for i, j in ((0, 0), (0, 1), (1, 0), (1, 1)):
        v = np.zeros(4, dtype=np.complex128)
        v[j] = 1.0
        v[2 + (1 ^ j)] = (-1.0) ** i
        columns.append(v / np.sqrt(2.0))
    return np.column_stack(columns)


def _same_bits(got, want):
    return (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())


def test_import_time_tables_keep_their_oracle_bits():
    # the Bell basis, each frame's change of basis, the coupling map and the
    # solver's fixed gate blocks, each against a construction of its own here
    bell = _bell_oracle()
    assert _same_bits(bell_change_of_basis(), bell)
    basis = np.stack([np.eye(2), pauli(1), pauli(2), pauli(3)])
    for h in (1, 2, 3):
        frame = bell_frame(h)
        order = frame_permutation(frame)
        cob = bell[:, order]
        assert _same_bits(frame.change_of_basis, cob)
        gens = [build_hamiltonian(PhysicalParams(t=1.0, J=tuple(e[:3]), B1=e[3], B2=e[4], h=h)) for e in np.eye(5)]
        coeffs = np.zeros((2, 4, 5))
        for n, g in enumerate(gens):
            w = cob.conj().T @ g @ cob
            for k in (0, 1):
                for a in range(4):
                    coeffs[k, a, n] = np.rint(np.trace(basis[a] @ w[2 * k : 2 * k + 2, 2 * k : 2 * k + 2]).real / 2.0)
        assert _same_bits(BLOCK_COEFFS[h], coeffs + 0.0)
        for tag in ("H_q2", "H_q1", "CNOT_12", "CNOT_21"):
            w = d_gate(GateId(tag))[np.ix_(order, order)].reshape(2, 2, 2, 2)
            assert _same_bits(calib._FIXED_BLOCKS[tag, h], np.einsum("aij,kjki->ka", basis, w) / 2.0)
    tables = (*BLOCK_COEFFS.values(), *_COEFF_MAP.values(), *calib._FIXED_BLOCKS.values())
    assert not any(t.flags.writeable for t in tables)


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
def test_frame_adjoint(h):
    # built once per frame and shared by every caller
    fr = bell_frame(h)
    c = fr.change_of_basis
    assert fr.adjoint.tobytes() == c.conj().T.tobytes()
    assert fr.adjoint.strides == c.conj().T.strides
    assert not fr.adjoint.flags.writeable


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


@pytest.mark.parametrize("block", [0, 3, -1, True, 1.0, "1", None])
def test_reduced_block_params_refuse_a_block_other_than_1_or_2(block):
    # block 0 read the frame's last signs and rebuilt block 2, True passed as
    # block 1, and block 3 ended in an IndexError inside closed_form_block
    with pytest.raises(ValueError, match=re.escape(f"block must be 1 or 2, got {block!r}")):
        ReducedBlockParams(block, 0.0, 0.5, 0.6, 0.8)


def test_reduced_block_params_store_the_block_as_an_int():
    rp = ReducedBlockParams(np.int64(2), 0.0, 0.5, 0.6, 0.8)
    assert type(rp.block) is int and rp == ReducedBlockParams(2, 0.0, 0.5, 0.6, 0.8)


@pytest.mark.parametrize("b, j", [(0.6, 0.9), (0.0, 0.0), (1.0, 1e-4)])
def test_closed_form_block_refuses_weights_off_the_unit_circle(b, j):
    rp = ReducedBlockParams(1, 0.0, 0.5, b, j)
    with pytest.raises(ValueError, match=r"\(b, j\) must lie on the unit circle, got b\^2 \+ j\^2 = "):
        closed_form_block(rp, bell_frame(1))
    # within UNIT_CIRCLE_TOL of the circle it builds
    closed_form_block(ReducedBlockParams(1, 0.0, 0.5, 1.0, math.sqrt(5e-10)), bell_frame(1))


def test_reduced_params_refuse_an_overflowing_block():
    # |c| of a block overflows: the parameters came out b = j = 0 with delta_minus = inf
    p = PhysicalParams(t=1.0, J=(0.0, 0.0, 1.7e308), B1=0.0, B2=1.7e308, h=1)
    with pytest.raises(NonUnitaryError, match=re.escape("max |u^dag u - 1| = inf")):
        reduced_params(p, bell_frame(1))
    with pytest.raises(NonUnitaryError):
        evolve(p)


_EDGE_COUPLINGS = st.sampled_from([0.0, 1.0, -1.0, 9e307, -9e307, 1e308, -1e308, 1.7e308, -1.7e308])


@settings(max_examples=300, deadline=None)
@given(st.lists(_EDGE_COUPLINGS, min_size=5, max_size=5), st.integers(1, 3), st.sampled_from([0.0, 1e-300, 1.0, 2.5]))
def test_reduced_params_lie_on_the_unit_circle_or_are_refused_with_the_evolution(x, h, t):
    # near the float maximum either both blocks reduce to finite phases on the
    # unit circle, or an eigenphase overflows and evolve fails as well
    p = PhysicalParams(t=t, J=tuple(x[:3]), B1=x[3], B2=x[4], h=h)
    try:
        rps = reduced_params(p, bell_frame(h))
    except NonUnitaryError:
        with pytest.raises(BellgateError):
            evolve(p)
        return
    for rp in rps:
        assert math.isfinite(rp.delta_plus) and math.isfinite(rp.delta_minus)
        assert abs(rp.b * rp.b + rp.j * rp.j - 1.0) <= UNIT_CIRCLE_TOL


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


@settings(max_examples=300, deadline=None)
@given(edge_params())
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


# Oracles for the per-call formulas that closed_form_block and to_blocks
# replaced: Pauli copies and an identity summed by numpy, and the
# adjoint recomputed on every call.


def _closed_form_oracle(rp, frame):
    n = block_axis(rp.b, rp.j, frame, rp.block)
    ns = n[0] * pauli(1) + n[1] * pauli(2) + n[2] * pauli(3)
    u = np.cos(rp.delta_minus) * np.eye(2) - 1j * np.sin(rp.delta_minus) * ns
    return np.exp(1j * rp.delta_plus) * u


def _to_blocks_oracle(u, frame):
    c = frame.change_of_basis
    m = c.conj().T @ np.asarray(u, dtype=np.complex128) @ c
    off = float(np.sqrt(np.linalg.norm(m[0:2, 2:4]) ** 2 + np.linalg.norm(m[2:4, 0:2]) ** 2))
    return m[0:2, 0:2].copy(), m[2:4, 2:4].copy(), off


#: evolution times scaled by up to six decades, on top of edge_params' six decades of couplings
TIME_SCALES = st.sampled_from([1.0, 1e3, 1e6])


def _scaled(p, scale):
    return PhysicalParams(t=p.t * scale, J=p.J, B1=p.B1, B2=p.B2, h=p.h)


@settings(max_examples=300, deadline=None)
@given(edge_params(), TIME_SCALES)
def test_closed_form_block_matches_its_oracle(case, scale):
    # degenerate blocks, t = 0 and large phases; equal values, a zero's sign may differ
    p = _scaled(case[0], scale)
    fr = bell_frame(p.h)
    for rp in reduced_params(p, fr):
        assert np.array_equal(closed_form_block(rp, fr), _closed_form_oracle(rp, fr))


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 3),
    st.integers(1, 2),
    st.one_of(st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0]), st.floats(0.0, 2.0)),
    st.one_of(st.just(0.0), st.floats(-1e6, 1e6)),
    st.one_of(st.just(0.0), st.floats(0.0, 1e6)),
)
def test_closed_form_block_matches_its_oracle_on_any_weights(h, block, turn, dplus, dminus):
    # (b, j) anywhere on the unit circle, the axes (turn a multiple of 1/2) included
    th = turn * math.pi
    rp = ReducedBlockParams(
        block=block, delta_plus=dplus, delta_minus=dminus, b=math.cos(th), j=math.sin(th)
    )
    fr = bell_frame(h)
    assert np.array_equal(closed_form_block(rp, fr), _closed_form_oracle(rp, fr))


def _same_split(got, want):
    # bit for bit, the sign of a zero included: blocks prints every entry
    return (
        got[0].tobytes() == want[0].tobytes()
        and got[1].tobytes() == want[1].tobytes()
        and got[2] == want[2]
    )


@settings(max_examples=300, deadline=None)
@given(edge_params(), TIME_SCALES, st.integers(1, 3))
def test_to_blocks_matches_its_oracle(case, scale, other_h):
    # the frame's own axis (off-block norm at rounding level) and any other axis
    p = _scaled(case[0], scale)
    u = evolve(p)
    for h in (p.h, other_h):
        fr = bell_frame(h)
        assert _same_split(to_blocks(u, fr), _to_blocks_oracle(u, fr))


def test_to_blocks_matches_its_oracle_on_any_unitary():
    rng = np.random.default_rng(71)
    for _ in range(200):
        u = random_unitary(rng)
        for h in (1, 2, 3):
            fr = bell_frame(h)
            assert _same_split(to_blocks(u, fr), _to_blocks_oracle(u, fr))


# The block kernel: one coupling map, one norm and one degenerate rule for
# reduced_params and the fidelity sweep.


@pytest.mark.parametrize("h", [1, 2, 3])
def test_transversal_table_matches_the_coefficients_and_the_frame_direction(h):
    # the transversal coefficient is the in-plane one the couplings reach, the
    # other stays zero; its sign is that of (sin(h pi/2), cos(h pi/2))
    tr = _TRANSVERSAL[h]
    assert BLOCK_COEFFS[h][:, tr].any() and not BLOCK_COEFFS[h][:, 3 - tr].any()
    assert _TRANSVERSAL_SIGN[h] == (SIN_H[h], COS_H[h])[tr - 1]
    assert (SIN_H[h], COS_H[h])[2 - tr] == 0.0


@pytest.mark.parametrize("h", [1, 2, 3])
@pytest.mark.parametrize(
    "couplings", [(5e-324, 0.0, 0.0, 0.0, 5e-324), (5e-324, 1e-320, 0.0, 3e-322, 0.0), (0.0, 0.0, 2e-310, 0.0, 0.0)]
)
def test_subnormal_couplings_keep_a_unit_axis(h, couplings):
    # |c| itself is subnormal with few digits, yet no block is degenerate and
    # every axis stays on the unit circle
    p = PhysicalParams(t=1.0, J=couplings[:3], B1=couplings[3], B2=couplings[4], h=h)
    fr = bell_frame(h)
    b1, b2, _ = to_blocks(evolve(p), fr)
    for rp, blk, norm in zip(reduced_params(p, fr), (b1, b2), _block_coefficients(np.array(couplings), h)[1]):
        assert (rp.delta_minus == 0.0) == (norm == 0.0)
        assert abs(rp.b**2 + rp.j**2 - 1.0) < NORMALIZATION_TOL
        assert np.max(np.abs(closed_form_block(rp, fr) - blk)) < ROUND_TRIP_TOL


def _couplings(p):
    return np.array([*p.J, p.B1, p.B2])


def _rescaled(p, k):
    return PhysicalParams(t=p.t * k, J=tuple(v / k for v in p.J), B1=p.B1 / k, B2=p.B2 / k, h=p.h)


#: powers of two from about 1e-150 to 1e150, so that (k t, J / k, B / k) is exact unless it underflows
SCALES = st.integers(-498, 498).map(lambda e: 2.0**e)
#: relative agreement of the reduced parameters of a rescaled evolution
SCALE_TOL = 1e-12


@settings(max_examples=300, deadline=None)
@given(edge_params(), SCALES)
def test_reduced_params_are_invariant_under_rescaling(case, k):
    # H t, and with it every block, is unchanged by (t, J, B) -> (k t, J / k, B / k);
    # generic, degenerate and near-degenerate blocks alike
    p = case[0]
    q = _rescaled(p, k)
    assume(_rescaled(q, 1.0 / k) == p)
    fr = bell_frame(p.h)
    degenerate = [_block_coefficients(_couplings(x), p.h)[1] == 0.0 for x in (p, q)]
    assert np.array_equal(*degenerate)
    b1, b2, _ = to_blocks(evolve(q), fr)
    for a, rp, blk in zip(reduced_params(p, fr), reduced_params(q, fr), (b1, b2)):
        for u, v in ((a.delta_minus, rp.delta_minus), (a.b, rp.b), (a.j, rp.j)):
            assert abs(u - v) <= SCALE_TOL * max(1.0, abs(u))
        assert np.max(np.abs(closed_form_block(rp, fr) - blk)) < ROUND_TRIP_TOL


@settings(max_examples=300, deadline=None)
@given(edge_params(), TIME_SCALES)
def test_reduced_params_and_the_sweep_share_the_rotation_angle(case, scale):
    # delta_minus is t |c| with the kernel's |c|, and the sweep's block maps
    # rotate by that same angle: cos(delta_minus) is their quaternion's scalar part
    p = _scaled(case[0], scale)
    c, r = _block_coefficients(_couplings(p), p.h)
    phase, quat = _rotations(p.t, c, r)
    rps = reduced_params(p, bell_frame(p.h))
    assert [rp.delta_minus for rp in rps] == (p.t * r).tolist()
    assert np.cos([rp.delta_minus for rp in rps]).tolist() == quat[:, 0].tolist()
    assert [-rp.delta_plus for rp in rps] == phase.tolist()
    for rp, norm in zip(rps, r.tolist()):
        if norm == 0.0:
            assert (rp.delta_minus, rp.b, rp.j) == (0.0, 0.0, 1.0)


# The point kernel: one coupling row on Python floats, held to the bits of
# the stacked kernel's row and of the numpy block maps.

#: signed zeros, subnormals, the edges of the normal range, and magnitudes whose sums overflow
EDGE_COUPLINGS = (
    0.0, -0.0, 5e-324, -5e-324, 1e-310, sys.float_info.min, -sys.float_info.min,
    1.0, -1.0, 1e300, 1.7e308, -1.7e308, sys.float_info.max, -sys.float_info.max,
)
EDGE_TIMES = (0.0, 5e-324, 1e-300, 1.0, 1e300, 1.7e308)


@st.composite
def _point_rows(draw):
    """(h, couplings, t): any finite couplings, edge values often, one block made degenerate in a third of the draws."""
    h = draw(st.integers(1, 3))
    coupling = st.one_of(st.sampled_from(EDGE_COUPLINGS), st.floats(allow_nan=False, allow_infinity=False))
    x = draw(st.lists(coupling, min_size=5, max_size=5))
    block = draw(st.sampled_from([None, None, 1, 2]))
    if block is not None:
        a, b, s_j, s_b = DEGENERATE[(h, block)]
        x[b] = s_j * x[a]
        x[4] = s_b * x[3]
    t = draw(st.one_of(st.sampled_from(EDGE_TIMES), st.floats(0.0, allow_infinity=False)))
    return h, tuple(x), t


def test_point_kernel_keeps_the_bits_of_the_stacked_kernel():
    met = []

    @settings(max_examples=600, deadline=None, derandomize=True, database=None)
    @given(_point_rows())
    def check(row):
        # c and |c| to the last bit, -0.0 apart from 0.0; and wherever _reduced
        # accepts the point, the float block maps equal the numpy ones over _rotations
        h, x, t = row
        c, r = _point_coefficients(x, h)
        want_c, want_r = _block_coefficients(np.array(x), h)
        assert repr(c) == repr(want_c.tolist())
        assert repr(r) == repr(want_r.tolist())
        try:
            _reduced(c, r, t, bell_frame(h))
        except NonUnitaryError:
            met.append((h, x, c, r, False))
            return
        phase, q = _rotations(t, want_c, want_r)
        want = np.exp(-1j * phase)[:, None] * q * (1.0, -1j, -1j, -1j)
        assert repr(_block_maps(t, c, r).tolist()) == repr(want.tolist())
        met.append((h, x, c, r, True))

    check()
    # every regime, met on each run (about twice these counts in 600 draws): all three axes,
    # signed zeros among the couplings, zero and subnormal coordinates, a degenerate block,
    # coordinates that overflow, a norm that overflows from finite coordinates, and points
    # that _reduced accepts and refuses
    coords = [v for _, _, c, _, _ in met for v in c[0] + c[1]]
    assert {h for h, *_ in met} == {1, 2, 3}
    assert sum(math.copysign(1.0, v) < 0.0 for _, x, *_ in met for v in x if v == 0.0) >= 60
    assert sum(v == 0.0 for v in coords) >= 1000
    assert sum(0.0 < abs(v) < sys.float_info.min for v in coords) >= 130
    assert sum(0.0 in r for *_, r, _ in met) >= 130
    assert sum(math.isinf(v) for v in coords) >= 60
    assert sum(math.isinf(n) for _, _, c, r, _ in met for n, cb in zip(r, c) if all(map(math.isfinite, cb))) >= 20
    assert sum(ok for *_, ok in met) >= 190 and sum(not ok for *_, ok in met) >= 100


_WRONG_FRAME_CALLS = {
    "reduced_params": lambda fr: reduced_params(PhysicalParams(t=1.0, J=(1.0, 0.0, 0.0), B1=0.0, B2=0.0, h=1), fr),
    "to_blocks": lambda fr: to_blocks(np.eye(4), fr),
    "closed_form_block": lambda fr: closed_form_block(ReducedBlockParams(1, 0.0, 0.0, 0.0, 1.0), fr),
    "frame_permutation": frame_permutation,
    "directional_derivatives": lambda fr: directional_derivatives(
        PhysicalParams(t=1.0, J=(1.0, 0.0, 0.0), B1=0.0, B2=0.0, h=1), Perturbation.axis(0, 1e-3), fr
    ),
}


@pytest.mark.parametrize("name", sorted(_WRONG_FRAME_CALLS))
@pytest.mark.parametrize("frame", [None, 1, "1"])
def test_a_wrong_frame_argument_raises_type_error(name, frame):
    # an AttributeError on frame.h once; now the TypeError BlockState raises
    with pytest.raises(TypeError, match=f"^expected a BellFrame, got {type(frame).__name__}$"):
        _WRONG_FRAME_CALLS[name](frame)
