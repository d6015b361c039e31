"""Target tables, the control solver, and calibration cards.

The expected target angles and solved controls are frozen by hand from the
block reduction of each generator; solver output must land on them exactly
through the closed-form path.
"""

import cmath
import dataclasses
import itertools
import json
import math
import re
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bellgate import (
    ACCEPT_TOL,
    GateId,
    PhysicalParams,
    PrescriptionCard,
    SolverFailure,
    bell_frame,
    cnot_family,
    d_gate,
    dist_phase_invariant,
    evolve,
    frame_permutation,
    prescription_targets,
    reduced_params,
    solve_physical,
)
from bellgate.bellframe import BLOCK_COEFFS
from bellgate import bellframe, calib
from bellgate.calib import _INVERSE, _TRANSVERSAL, SOLVABLE_TAGS
from bellgate.checks import RECOMPUTE_TOL
from bellgate.errors import BellgateError
from bellgate.jsonio import dumps
from bellgate.model import GENERATORS
from conftest import parsed, windings_give_rotations

TWO_PI = 2.0 * math.pi
PI = math.pi
SQ2 = 1.0 / math.sqrt(2.0)
CARD_RESIDUAL_TOL = 1e-9
FAMILY_ERROR_CEILING = 5e-3

PHI = 0.5

# frozen target angles: (h, delta_plus_1, delta_minus_1, delta_minus_2)
FROZEN_TARGETS = {
    "S_phi_q2": (1, TWO_PI, PHI, PHI),
    "S_phi_q1": (1, PHI, TWO_PI, TWO_PI),
    "H_q2": (1, PI / 2, PI / 2, PI / 2),
    "H_q1": (3, PI / 2, PI / 2, PI / 2),
    "CNOT_12": (1, PI / 4, TWO_PI, PI / 2),
    "CNOT_21": (3, PI / 4, TWO_PI, PI / 2),
}

# frozen solved controls: (t, J, B1, B2, h)
FROZEN_CONTROLS = {
    "S_phi_q2": (PHI, (0.0, 0.0, 1.0), 0.0, 0.0, 1),
    "S_phi_q1": (TWO_PI, (PHI / TWO_PI, 0.0, 1.0), 0.0, 0.0, 1),
    "H_q2": (PI / 2, (-1.0, -SQ2, 0.0), -SQ2, 0.0, 1),
    "H_q1": (PI / 2, (0.0, -SQ2, -1.0), 0.0, -SQ2, 3),
    "CNOT_12": (5 * PI / 4, (0.2, 0.0, 0.0), 1.0, 0.6, 1),
    "CNOT_21": (5 * PI / 4, (0.0, 0.0, 0.2), 0.6, 1.0, 3),
}


def _targets(tag, **kwargs):
    g = GateId(tag, phi=PHI) if tag.startswith("S_phi") else GateId(tag)
    return prescription_targets(g, **kwargs)


def _verify_card_against_frame(card):
    """Independent check: evolve the solved controls and compare blocks."""
    tg = card.targets
    frame = bell_frame(tg.h)
    cob = frame.change_of_basis
    mat = cob.conj().T @ evolve(card.solved) @ cob
    perm = frame_permutation(frame)
    want = d_gate(tg.gate)[np.ix_(perm, perm)]
    return dist_phase_invariant(mat, want)


@pytest.mark.parametrize("tag", sorted(FROZEN_TARGETS))
def test_frozen_target_angles(tag):
    tg = _targets(tag)
    h, dp1, dm1, dm2 = FROZEN_TARGETS[tag]
    assert tg.h == h
    assert tg.delta_plus_1 == pytest.approx(dp1, abs=1e-15)
    assert tg.delta_minus_1 == pytest.approx(dm1, abs=1e-15)
    assert tg.delta_minus_2 == pytest.approx(dm2, abs=1e-15)


def test_phase_gate_targets_pin_axis():
    tg = _targets("S_phi_q2")
    assert tg.j_targets == (-1.0, 1.0)
    assert tg.b_targets == (0.0, 0.0)


def test_hadamard_targets_pin_relation():
    assert _targets("H_q2").b_relation_sign == 1
    assert _targets("H_q1").b_relation_sign == -1


def test_cnot_targets_pin_plane():
    tg = _targets("CNOT_12")
    assert tg.j_targets == (0.0, 0.0)
    assert tg.b_abs_to_one is True
    assert (tg.m, tg.m_prime) == (1, 0)


def test_cnot_winding_raises_angles():
    tg = _targets("CNOT_21", m=2, m_prime=3)
    assert tg.delta_minus_1 == pytest.approx(2 * TWO_PI, abs=1e-12)
    assert tg.delta_minus_2 == pytest.approx(PI / 2 + 3 * TWO_PI, abs=1e-12)


def test_alternate_route_moves_frame():
    tg = _targets("S_phi_q1", route="alternate")
    assert tg.h == 3
    assert tg.delta_minus_1 == pytest.approx(PHI, abs=1e-15)
    assert tg.j_targets == (-1.0, 1.0)


def test_route_validation():
    with pytest.raises(ValueError):
        _targets("S_phi_q2", route="alternate")
    with pytest.raises(ValueError):
        _targets("S_phi_q1", route="shortcut")


def test_targets_reject_non_generators():
    with pytest.raises(ValueError):
        prescription_targets(GateId("T_translator"))
    with pytest.raises(ValueError):
        prescription_targets(GateId("B_H", qubit=1))


def test_targets_reject_bad_windings():
    with pytest.raises(ValueError):
        _targets("CNOT_12", m=0)
    with pytest.raises(ValueError):
        _targets("CNOT_12", m=1, m_prime=-1)


def test_phi_canonicalization_wraps_to_full_turn():
    tg = prescription_targets(GateId("S_phi_q2", phi=0.0))
    assert tg.delta_minus_1 == pytest.approx(TWO_PI, abs=1e-15)
    card = solve_physical(tg)
    assert card.realized_error < 1e-10


@pytest.mark.parametrize("tag", sorted(FROZEN_CONTROLS))
def test_solver_reproduces_published_controls(tag):
    card = solve_physical(_targets(tag))
    t, J, b1, b2, h = FROZEN_CONTROLS[tag]
    assert card.solved.t == pytest.approx(t, abs=1e-12)
    assert card.solved.h == h
    for got, want in zip(card.solved.J, J):
        assert got == pytest.approx(want, abs=1e-12)
    assert card.solved.B1 == pytest.approx(b1, abs=1e-12)
    assert card.solved.B2 == pytest.approx(b2, abs=1e-12)
    assert card.realized_error <= ACCEPT_TOL
    assert max(card.residuals) <= CARD_RESIDUAL_TOL
    assert _verify_card_against_frame(card) < 1e-12


def test_alternate_route_controls():
    card = solve_physical(_targets("S_phi_q1", route="alternate"))
    assert card.solved.t == pytest.approx(PHI, abs=1e-12)
    assert card.solved.J == pytest.approx((1.0, 0.0, 0.0), abs=1e-12)
    assert card.solved.h == 3
    assert _verify_card_against_frame(card) < 1e-12


def test_residual_labels_follow_targets():
    # three angle residuals, then j_1, j_2 where the row pins j and b_1, b_2
    # where it pins b by value or by the Hadamard relation
    counts = {"S_phi_q2": 7, "S_phi_q1": 3, "H_q1": 5, "CNOT_12": 5}
    for tag, count in counts.items():
        assert len(solve_physical(_targets(tag)).residuals) == count


def test_solver_is_deterministic():
    a = solve_physical(_targets("H_q2"))
    b = solve_physical(_targets("H_q2"))
    assert a == b
    assert dumps(a.to_doc(), indent=2) == dumps(b.to_doc(), indent=2)


def _assert_round_trip(card):
    text = dumps(card.to_doc(), indent=2)
    back = PrescriptionCard.from_doc(json.loads(text))
    assert back == card
    assert dumps(back.to_doc(), indent=2) == text


def test_card_round_trip_is_lossless():
    # every published row, both S_phi_q1 routes, and CNOT windings past the defaults
    for tag in sorted(FROZEN_CONTROLS):
        _assert_round_trip(solve_physical(_targets(tag)))
    _assert_round_trip(solve_physical(_targets("S_phi_q1", route="alternate")))
    for tag in ("CNOT_12", "CNOT_21"):
        for m, m_prime in ((2, 1), (3, 2), (8, 10)):
            _assert_round_trip(solve_physical(_targets(tag, m=m, m_prime=m_prime)))


def test_family_card_round_trip():
    for tag in ("CNOT_12", "CNOT_21"):
        for m, field_scale in ((1, 1.0), (3, 2.0), (8, 10.0)):
            _assert_round_trip(cnot_family(GateId(tag), m=m, field_scale=field_scale))


@pytest.mark.parametrize("text", ["nope", "{}", '{"gate": "H_q1"}'])
def test_parse_card_rejects_malformed(text):
    with pytest.raises(ValueError):
        PrescriptionCard.from_doc(parsed(text))


def test_card_from_doc_recomputes_honesty_numbers():
    # stored numbers within RECOMPUTE_TOL of the recomputation are read as the
    # recomputation; beyond it the document is rejected
    card = cnot_family(GateId("CNOT_12"), m=2, field_scale=1.0)
    doc = card.to_doc()
    doc["realized_error"] += RECOMPUTE_TOL / 2
    doc["residuals"][0] += RECOMPUTE_TOL / 2
    assert PrescriptionCard.from_doc(doc) == card
    doc["realized_error"] += RECOMPUTE_TOL
    with pytest.raises(ValueError, match="recomputation"):
        PrescriptionCard.from_doc(doc)


def test_card_from_doc_reads_either_branch_where_they_coincide():
    # delta_plus_1 = 2*pi: both signs of it are one phase, so which branch the
    # stored card names is a rounding choice; elsewhere a flipped branch is an edit
    card = solve_physical(_targets("S_phi_q2"))
    doc = card.to_doc()
    doc["phase_branch"] = -doc["phase_branch"]
    assert PrescriptionCard.from_doc(doc) == card
    doc = solve_physical(_targets("H_q2")).to_doc()
    doc["phase_branch"] = -doc["phase_branch"]
    with pytest.raises(ValueError, match="phase_branch .* differs from its recomputation"):
        PrescriptionCard.from_doc(doc)


@pytest.mark.parametrize("key, value", [("m", 7), ("m", 1), ("m_prime", 0), ("m_prime", 2)])
def test_card_windings_must_give_its_rotations(key, value):
    # m and m_prime are echoed in every sweep row, so they must be the
    # windings delta_minus_1 = 2 pi m and delta_minus_2 = pi/2 + 2 pi m_prime
    doc = solve_physical(_targets("CNOT_12", m=2, m_prime=1)).to_doc()
    (doc if key == "m" else doc["targets"])[key] = value
    with pytest.raises(ValueError, match="must give the card's delta_minus"):
        PrescriptionCard.from_doc(doc)


#: malformed target fields, each with the message the card reader gives for it
_MALFORMED_TARGETS = [
    ("delta_plus_1", None, "delta_plus_1 must be a finite real number, got None"),
    ("delta_minus_1", None, "delta_minus_1 must be a finite real number, got None"),
    ("delta_minus_2", None, "delta_minus_2 must be a finite real number, got None"),
    ("delta_plus_1", math.nan, "delta_plus_1 must be a finite real number, got nan"),
    ("delta_plus_1", math.inf, "delta_plus_1 must be a finite real number, got inf"),
    ("delta_minus_1", True, "delta_minus_1 must be a finite real number, got True"),
    ("delta_minus_2", "1.0", "delta_minus_2 must be a finite real number, got '1.0'"),
    ("delta_plus_1", 10**400, f"delta_plus_1 must be a finite real number, got {10**400!r}"),
    ("j_targets", [1.0], "j_targets must be a list of 2 real numbers, got [1.0]"),
    ("j_targets", ["0", "x"], "j_targets must be a finite real number, got '0'"),
    ("b_targets", 0.5, "b_targets must be a list of 2 real numbers, got 0.5"),
    ("b_targets", [0.0, None], "b_targets must be a finite real number, got None"),
    ("b_abs_to_one", None, "b_abs_to_one must be true or false, got None"),
    ("b_abs_to_one", "no", "b_abs_to_one must be true or false, got 'no'"),
    ("b_abs_to_one", 1, "b_abs_to_one must be true or false, got 1"),
    ("m_prime", 2.5, "m_prime must be an integer, got 2.5"),
    ("m_prime", True, "m_prime must be an integer, got True"),
    ("b_relation_sign", 2, "b_relation_sign must be 1 or -1, got 2"),
]


@pytest.mark.parametrize("tag", ["S_phi_q2", "CNOT_12"])
@pytest.mark.parametrize("key, value, message", _MALFORMED_TARGETS)
def test_a_malformed_target_field_has_one_message_in_a_card_and_a_hand_built_target(tag, key, value, message):
    # the target set checks its own fields, so the card reader and a hand-built target say the same
    row = _targets(tag)
    doc = solve_physical(row).to_doc()
    doc["targets"][key] = value
    with pytest.raises(ValueError) as from_card:
        PrescriptionCard.from_doc(doc)
    with pytest.raises(ValueError) as by_hand:
        dataclasses.replace(row, **{key: value})
    assert str(from_card.value) == str(by_hand.value) == message


def test_a_hand_built_target_needs_a_gate_id():
    with pytest.raises(TypeError, match="^expected a GateId, got str$"):
        dataclasses.replace(_targets("S_phi_q2"), gate="S_phi_q2")


def test_a_target_set_holds_what_its_checks_return():
    # numpy scalars, integers and list pairs become the float, int, bool and tuple the row holds
    row = _targets("S_phi_q2")
    tg = dataclasses.replace(row, delta_plus_1=np.float64(TWO_PI), delta_minus_1=PHI, delta_minus_2=np.float32(0.5),
                             j_targets=list(row.j_targets), b_targets=[0, 0], b_abs_to_one=np.False_,
                             b_relation_sign=None)
    assert tg == row
    assert [type(v) for v in (tg.delta_plus_1, tg.delta_minus_2, tg.j_targets, tg.b_targets, tg.b_abs_to_one)] == [
        float, float, tuple, tuple, bool]
    # a list pair equal to the row's is the row, so it gets the closed-form controls
    assert solve_physical(tg) == solve_physical(row)


def test_shifted_cnot_card_keeps_its_windings():
    # a shifted drift leaves the row's rotations, so its windings still read
    tg = dataclasses.replace(_targets("CNOT_21", m=2, m_prime=2), delta_plus_1=5 * PI / 4)
    _assert_round_trip(solve_physical(tg))


def test_solver_reaches_shifted_drift_branch():
    # a pi shift of the drift phase is a global sign, so this variant of
    # the phase-gate row is realizable; it must go through the inversion
    # because the closed form lands on the published branch
    tg = dataclasses.replace(_targets("S_phi_q2"), delta_plus_1=PI)
    card = solve_physical(tg)
    assert card.realized_error <= ACCEPT_TOL
    assert max(card.residuals) <= ACCEPT_TOL
    lam = max(abs(v) for v in (*card.solved.J, card.solved.B1, card.solved.B2))
    assert lam == pytest.approx(1.0, abs=1e-12)
    assert solve_physical(tg) == card


@pytest.mark.parametrize("h", [1, 2, 3])
def test_inversion_table_is_exact_and_pairs_the_couplings(h):
    tr = _TRANSVERSAL[h]
    rows = BLOCK_COEFFS[h][[0, 0, 0, 1, 1], [0, tr, 3, tr, 3]]
    inv = _INVERSE[h]
    assert np.array_equal(inv @ rows, np.eye(5))
    assert set(np.abs(inv).ravel().tolist()) <= {0.0, 0.5, 1.0}
    for y in np.random.default_rng(h).normal(size=(50, 5)):
        x = inv @ y
        full = BLOCK_COEFFS[h] @ x
        # the three rows left out follow from the five solved for
        assert full[1, 0] == pytest.approx(-y[0], abs=1e-15)
        assert full[0, 3 - tr] == full[1, 3 - tr] == 0.0
        # the pairing the shortest-pulse axis choice relies on
        want = max(abs(y[0]), (abs(y[1]) + abs(y[3])) / 2, (abs(y[2]) + abs(y[4])) / 2)
        assert np.abs(x).max() == pytest.approx(want, rel=1e-15)


def _shifted_card(tg, shift):
    tg = dataclasses.replace(tg, delta_plus_1=shift)
    card = solve_physical(tg)
    assert card.targets == tg
    assert card.realized_error <= ACCEPT_TOL
    assert max(card.residuals) <= ACCEPT_TOL
    assert _verify_card_against_frame(card) < 1e-12
    return card


@pytest.mark.parametrize(
    "tag, m, m_prime, t", [("CNOT_12", 2, 1, 3.25 * PI), ("CNOT_21", 2, 0, 2.25 * PI)]
)
def test_shifted_cnot_windings_are_solved(tag, m, m_prime, t):
    # both windings exhausted the former 64-start search; the inversion
    # realizes them as asked, with duration (delta_minus_1 + delta_minus_2) / 2
    card = _shifted_card(_targets(tag, m=m, m_prime=m_prime), 5 * PI / 4)
    assert card.solved.t == pytest.approx(t, abs=1e-12)
    rp1, rp2 = reduced_params(card.solved, bell_frame(card.targets.h))
    assert rp1.delta_minus == pytest.approx(2 * m * PI, abs=1e-12)
    assert rp2.delta_minus == pytest.approx(PI / 2 + 2 * m_prime * PI, abs=1e-12)


@pytest.mark.parametrize("phi", [0.05, PI - 0.04])
def test_shifted_phase_gate_near_zero_and_pi(phi):
    # the drift phase pi is one coupling of magnitude pi at t = 1 and the
    # rotation phi is below it, so the pulse lasts exactly pi
    tg = prescription_targets(GateId("S_phi_q2", phi=phi))
    card = _shifted_card(tg, PI)
    assert card.solved.t == pytest.approx(PI, abs=1e-12)


def test_unpinned_hadamard_reads_axis_from_gate():
    # without the relation the row pins no axis: the blocks' Hadamard axes
    # are read from the target gate, and the drift shift costs nothing
    tg = dataclasses.replace(_targets("H_q2"), b_relation_sign=None)
    card = _shifted_card(tg, PI / 2 + PI)
    assert len(card.residuals) == 3
    assert card.solved.t == pytest.approx(PI / 2, abs=1e-12)
    rp1, rp2 = reduced_params(card.solved, bell_frame(1))
    assert abs(rp1.b) == pytest.approx(SQ2, abs=1e-12)
    assert abs(rp2.j) == pytest.approx(SQ2, abs=1e-12)


def test_invisible_axes_take_the_shortest_pulse():
    # a half-turn on both blocks of the printed S_phi_q1 row makes each a
    # multiple of the identity, so neither axis is visible; one transversal
    # and one longitudinal axis split the rotation between exchange and
    # field, and the pulse lasts pi / 2 against the closed form's 2 pi
    tg = dataclasses.replace(_targets("S_phi_q1"), delta_minus_1=PI, delta_minus_2=PI)
    card = _shifted_card(tg, PHI)
    assert card.solved.t == pytest.approx(PI / 2, abs=1e-12)


def test_one_invisible_axis_balances_the_other_block():
    # CNOT_12 without the j pin: block 1 (2 pi, identity) hides its axis,
    # block 2 (pi / 2 about the transversal axis) does not, and the hidden
    # axis is tilted until field and exchange sums are equal
    tg = dataclasses.replace(_targets("CNOT_12"), j_targets=None)
    card = _shifted_card(tg, 5 * PI / 4)
    th = np.linspace(0.0, PI / 2, 200001)
    grid = np.maximum(PI / 2 + TWO_PI * np.cos(th), TWO_PI * np.sin(th)).min() / 2
    assert card.solved.t <= grid + 1e-12
    assert card.solved.t == pytest.approx(grid, abs=1e-4)
    assert card.solved.t < 5 * PI / 4
    # balanced: both field amplitudes and the exchange pair J2, J3 reach the bound
    p = card.solved
    assert max(abs(p.B1), abs(p.B2)) == pytest.approx(1.0, abs=1e-12)
    assert max(abs(p.J[1]), abs(p.J[2])) == pytest.approx(1.0, abs=1e-12)


def test_solver_failure_reports_best_residual():
    # a drift target off the pi grid is inconsistent with the gate matrix
    tg = dataclasses.replace(_targets("S_phi_q2"), delta_plus_1=0.7)
    with pytest.raises(SolverFailure) as exc:
        solve_physical(tg)
    assert 0.0 < exc.value.best_residual < 1.0


@pytest.mark.parametrize("rotations", [(0.0, 0.0), (-1.0, 0.0)])
def test_cnot_rotations_without_a_duration_do_not_build(rotations):
    # a CNOT row's rotations are those of its windings, so a CNOT target
    # that rotates neither block is refused before any solve
    with pytest.raises(ValueError, match="^only CNOT cards carry windings, and m = 1, m_prime = 0 must give"):
        dataclasses.replace(_targets("CNOT_12", m=1, m_prime=0), delta_minus_1=rotations[0],
                            delta_minus_2=rotations[1])


@pytest.mark.parametrize(
    "field, value",
    [("m", 2.5), ("m", True), ("m_prime", True), ("m_prime", 1.0),
     ("b_relation_sign", 2), ("b_relation_sign", True), ("b_relation_sign", 1.0)],
)
def test_targets_reject_non_integer_fields(field, value):
    with pytest.raises(ValueError):
        dataclasses.replace(_targets("CNOT_12"), **{field: value})


def test_targets_store_integer_fields_as_int():
    row = _targets("CNOT_12", m=2, m_prime=1)
    tg = dataclasses.replace(
        row, m=np.int64(2), m_prime=np.int32(1), b_relation_sign=np.int8(-1), h=np.int64(row.h)
    )
    assert (tg.m, tg.m_prime, tg.b_relation_sign, tg.h) == (2, 1, -1, row.h)
    assert all(type(v) is int for v in (tg.m, tg.m_prime, tg.b_relation_sign, tg.h))


def test_infeasible_axis_targets_rejected():
    with pytest.raises(ValueError, match=r"^infeasible targets: j\^2 \+ b\^2 = 2.0 != 1$"):
        dataclasses.replace(_targets("S_phi_q2"), j_targets=(1.0, 1.0), b_targets=(1.0, 1.0))


def _card_doc_with(doc, edit):
    """A card document with the target fields of edit set as a target set holds them."""
    for key, value in edit.items():
        if key == "gate":
            doc["gate"], doc["phi"] = value.tag, value.phi
        else:
            (doc if key in doc else doc["targets"])[key] = value
    return doc


#: hand-built targets the solver used to solve into cards the card reader refused, and the reader's message
_REFUSED_BY_THE_READER = [
    ("H_q2", {"m": 3}, "only CNOT cards carry windings, and m = 3, m_prime = None must give the card's "
                       "delta_minus 1.5707963267948966, 1.5707963267948966"),
    ("CNOT_12", {"m": None, "m_prime": None}, "a CNOT card carries its windings m and m_prime, got null for both"),
    ("CNOT_12", {"m": 5}, "only CNOT cards carry windings, and m = 5, m_prime = 0 must give the card's "
                          "delta_minus 6.283185307179586, 1.5707963267948966"),
    ("CNOT_12", {"m": -4}, "CNOT windings require m >= 1, m_prime >= 0 and m + m_prime <= 1.43e+307, got -4, 0"),
    ("H_q2", {"gate": GateId("T_translator")}, "T_translator has no pulse prescription"),
    ("S_phi_q2", {"j_targets": (1.5, -1.0)}, "infeasible targets: weight outside [-1, 1] in (1.5, -1.0)"),
    ("H_q2", {"h": 5}, "field axis h must be 1, 2 or 3, got 5"),
    ("H_q2", {"h": True}, "field axis h must be 1, 2 or 3, got True"),
    ("CNOT_12", {"h": 1.0}, "field axis h must be 1, 2 or 3, got 1.0"),
]


@pytest.mark.parametrize("tag, edit, message", _REFUSED_BY_THE_READER)
def test_a_target_the_card_reader_refuses_does_not_build(tag, edit, message):
    # the same message for the target built by hand and for the card document with the same edit
    row = _targets(tag)
    doc = _card_doc_with(solve_physical(row).to_doc(), edit)
    with pytest.raises(ValueError) as from_card:
        PrescriptionCard.from_doc(doc)
    with pytest.raises(ValueError) as by_hand:
        dataclasses.replace(row, **edit)
    assert str(from_card.value) == str(by_hand.value) == message


def test_family_controls_formula():
    s = 2.0
    card = cnot_family(GateId("CNOT_12"), m=3, field_scale=s)
    assert card.solved.t == pytest.approx(1.0 / s, abs=1e-15)
    assert card.solved.J[0] == pytest.approx(PI * s / 4.0, abs=1e-12)
    assert card.solved.J[1] == pytest.approx(0.5, abs=1e-15)
    assert card.solved.J[2] == pytest.approx(-0.5, abs=1e-15)
    assert card.solved.B1 == pytest.approx((2 * 3 * PI + PI / 4) * s, abs=1e-12)
    assert card.solved.B2 == pytest.approx(-PI * s / 4.0, abs=1e-12)
    assert card.solved.h == 1
    assert card.targets.m_prime == 3


def test_family_mirror_swaps_roles():
    s = 1.0
    card = cnot_family(GateId("CNOT_21"), m=2, field_scale=s)
    assert card.solved.h == 3
    assert card.solved.J[2] == pytest.approx(PI / 4.0, abs=1e-12)
    assert card.solved.B2 == pytest.approx(2 * 2 * PI + PI / 4, abs=1e-12)
    assert card.solved.B1 == pytest.approx(-PI / 4.0, abs=1e-12)


def test_family_error_decreases_with_winding():
    errors = []
    for m in range(1, 7):
        card = cnot_family(GateId("CNOT_12"), m=m, field_scale=1.0)
        errors.append(card.realized_error)
    for lo, hi in zip(errors[1:], errors[:-1]):
        assert lo < hi
    assert errors[-1] < FAMILY_ERROR_CEILING


def test_family_error_ceiling_once_field_dominates():
    # once the in-plane weight is within 1e-3 of unity the gate error is
    # already far below the ceiling
    from bellgate import reduced_params

    for m in (4, 6, 8):
        card = cnot_family(GateId("CNOT_12"), m=m, field_scale=1.0)
        frame = bell_frame(card.solved.h)
        rp1, _ = reduced_params(card.solved, frame)
        if abs(rp1.b) >= 0.999:
            assert card.realized_error < FAMILY_ERROR_CEILING


def test_family_scale_trades_time_for_error():
    errs = {
        s: cnot_family(GateId("CNOT_12"), m=4, field_scale=s).realized_error
        for s in (0.5, 1.0, 2.0)
    }
    assert errs[2.0] < errs[1.0] < errs[0.5]


@pytest.mark.parametrize("tag", ["CNOT_12", "CNOT_21"])
def test_family_error_follows_the_fourth_power_law(tag):
    # the realized error falls as field_scale^-4 (cnot_family's docstring);
    # at field_scale 1e4 it is near 1e-21, where a distance that cancels
    # would print rounding noise of either sign
    for m in range(1, 9):
        base = cnot_family(GateId(tag), m, 10.0).realized_error * 10.0**4
        for fs in (30.0, 100.0, 1e3, 1e4):
            scaled = cnot_family(GateId(tag), m, fs).realized_error * fs**4
            assert abs(scaled - base) <= 1e-2 * base


@pytest.mark.parametrize("tag", ["CNOT_12", "CNOT_21"])
def test_family_error_follows_its_law(tag):
    # realized_error = 1 / (64 pi^2 m^2 fs^4) (1 - 1 / (8 pi^2 m^2 fs^2) + ...),
    # the law of cnot_family's docstring; the ratio is within 1.27e-4 of 1 at fs = 10
    for m in range(1, 101):
        for fs in (10.0, 30.0, 100.0):
            ratio = cnot_family(GateId(tag), m, fs).realized_error * 64 * PI**2 * m**2 * fs**4
            assert abs(ratio - 1.0) <= 2e-4
            if m <= 8 and fs == 10.0:
                assert (ratio - 1.0) * m**2 * fs**2 == pytest.approx(-1 / (8 * PI**2), abs=1e-4)


@st.composite
def _cards(draw):
    """A published card, a card solved for a shifted target, or a family card."""
    kind = draw(st.sampled_from(["published", "shifted", "family"]))
    if kind == "family":
        tag = draw(st.sampled_from(["CNOT_12", "CNOT_21"]))
        return cnot_family(GateId(tag), draw(st.integers(1, 8)), 10.0 ** draw(st.floats(0.0, 4.0)))
    tg = draw(_unpublished_targets())
    if kind == "published":
        tg = prescription_targets(tg.gate, m=tg.m or 1, m_prime=tg.m_prime or 0)
    try:
        return solve_physical(tg)
    except SolverFailure:
        assume(False)


@settings(max_examples=200, deadline=None)
@given(_cards())
def test_realized_error_matches_the_4x4_path(card):
    # the block-map distance against the propagator by eigh and the 4x4 distance
    assert abs(card.realized_error - _verify_card_against_frame(card)) <= 1e-15


def _mp_realized_error(card):
    """60-digit oracle: the 4x4 distance of the card's float controls, from mpmath's expm."""
    p, frame = card.solved, bell_frame(card.solved.h)
    perm = frame_permutation(frame)
    with mpmath.workdps(60):
        c = mpmath.matrix(np.rint(frame.change_of_basis.real * np.sqrt(2.0)).tolist()) / mpmath.sqrt(2)
        hm = mpmath.zeros(4, 4)
        for v, g in zip((*p.J, p.B1, p.B2), GENERATORS[p.h]):
            hm += mpmath.mpf(float(v)) * mpmath.matrix(g.tolist())
        u = mpmath.expm(-1j * mpmath.mpf(p.t) * (c.H * hm * c))
        w = mpmath.matrix(d_gate(card.targets.gate)[np.ix_(perm, perm)].tolist())
        pairs = [(u[i, j], w[i, j]) for i in range(4) for j in range(4)]
        rot = mpmath.expjpi(mpmath.arg(mpmath.fsum(mpmath.conj(a) * b for a, b in pairs)) / mpmath.pi)
        return mpmath.fsum(abs(rot * a - b) ** 2 for a, b in pairs) / 8


@pytest.mark.parametrize(
    "tag, m, fs",
    [("CNOT_12", 1, 20.0), ("CNOT_21", 2, 100.0), ("CNOT_12", 1, 1e3), ("CNOT_21", 3, 3e3), ("CNOT_12", 4, 1e4)],
)
def test_realized_error_against_60_digit_oracle(tag, m, fs):
    # errors from about 1e-8 down to 1e-20.  Each rounding of the block maps
    # costs about eps * |d| with |d| ~ sqrt(error); the 4x4 path misses this
    # bound on the last card (1.1e-14), the block maps keep within 4e-15
    card = cnot_family(GateId(tag), m, fs)
    want = _mp_realized_error(card)
    assert 1e-21 < want < 1e-7
    assert abs(card.realized_error - want) <= 1e-14 * mpmath.sqrt(want)


def test_subnormal_overlap_with_the_target_is_no_warning():
    # a subnormal drift target gives candidates whose block maps overlap the
    # target in a subnormal s . w; its phase must come without an overflow
    tg = dataclasses.replace(_targets("H_q2"), delta_plus_1=2.225073858507e-311)
    card = solve_physical(tg)
    assert card.realized_error <= ACCEPT_TOL
    assert abs(card.realized_error - _verify_card_against_frame(card)) <= 1e-15


def test_family_validation():
    with pytest.raises(ValueError):
        cnot_family(GateId("CNOT_12"), m=0, field_scale=1.0)
    with pytest.raises(ValueError):
        cnot_family(GateId("CNOT_12"), m=1, field_scale=0.0)
    with pytest.raises(ValueError):
        cnot_family(GateId("H_q1"), m=1, field_scale=1.0)


def test_emit_card_schema():
    card = solve_physical(_targets("CNOT_12"))
    doc = json.loads(dumps(card.to_doc(), indent=2))
    assert doc["gate"] == "CNOT_12"
    assert doc["h"] == 1
    assert doc["m"] == 1
    assert set(doc["solved"]) == {"t", "J", "B1", "B2"}
    assert len(doc["residuals"]) == len(card.residuals)
    assert doc["phase_branch"] in (-1, 1)


def _candidates_oracle(tg):
    # _candidates as it scored each choice by its own matrix-vector product:
    # every choice scored, sorted by (duration, enumeration index), each made
    # PhysicalParams when the caller asks for it
    h = tg.h
    tr = _TRANSVERSAL[h]
    w = calib._target_blocks(tg)
    rot = (tg.delta_minus_1, tg.delta_minus_2)
    axes = calib._fill_invisible([calib._axis_choices(tg, k, w[k - 1]) for k in (1, 2)], rot, tr)
    r = math.remainder(tg.delta_plus_1, TWO_PI)
    scored = []
    for s, n1, n2 in itertools.product((1.0, -1.0), axes[0], axes[1]):
        y = [-s * r, rot[0] * n1[tr - 1], rot[0] * n1[2], rot[1] * n2[tr - 1], rot[1] * n2[2]]
        x = _INVERSE[h] @ np.array(y)
        scored.append((float(np.abs(x).max()), len(scored), x))
    scored.sort(key=lambda item: item[:2])
    for lam, _, x in scored:
        x = x / lam if lam else x
        yield PhysicalParams(t=lam, J=(x[0], x[1], x[2]), B1=x[3], B2=x[4], h=h)


def _evaluate_oracle(tg, p, w):
    # _evaluate on numpy arrays, independent of the point kernel: the stacked
    # block kernel on one row, its reduced parameters, and the block maps as
    # one numpy expression over _rotations
    frame = bell_frame(tg.h)
    c, r = bellframe._block_coefficients(np.array((*p.J, p.B1, p.B2)), tg.h)
    (dplus1, dminus1, b1, j1), (_, dminus2, b2, j2) = bellframe._reduced(c.tolist(), r.tolist(), p.t, frame)
    d_pos = calib._circ(dplus1 - tg.delta_plus_1)
    d_neg = calib._circ(dplus1 + tg.delta_plus_1)
    branch = 1 if d_pos <= d_neg else -1
    res = [
        min(d_pos, d_neg),
        calib._circ(dminus1 - tg.delta_minus_1),
        calib._circ(dminus2 - tg.delta_minus_2),
    ]
    if tg.j_targets is not None:
        res += [abs(j1 - tg.j_targets[0]), abs(j2 - tg.j_targets[1])]
    if tg.b_targets is not None:
        res += [abs(b1 - tg.b_targets[0]), abs(b2 - tg.b_targets[1])]
    elif tg.b_relation_sign is not None:
        rel = float(tg.b_relation_sign)
        res += [
            abs(b1 - rel * frame.q[0] * frame.beta[0] * j1),
            abs(b2 - rel * frame.q[1] * frame.beta[1] * j2),
        ]
    phase, q = bellframe._rotations(p.t, c, r)
    s = np.exp(-1j * phase)[:, None] * q * (1.0, -1j, -1j, -1j)
    z = np.vdot(s, w)
    d = cmath.rect(1.0, math.atan2(z.imag, z.real)) * s - w
    err = np.vdot(d, d).real / 4.0
    return tuple(float(v) for v in res), branch, float(err), abs(d_pos - d_neg)


def _outcome(call):
    """repr of call()'s value, which tells -0.0 from 0.0, or the type and message of what it raised."""
    try:
        return repr(call())
    except (ArithmeticError, ValueError, BellgateError) as exc:
        return f"{type(exc).__name__}: {exc}"


def _docs(candidates):
    """JSON of each candidate in turn, then what building the next one raised, if anything."""
    out = []
    try:
        for p in candidates:
            out.append(dumps(p.to_doc()))
    except (ArithmeticError, ValueError, BellgateError) as exc:
        out.append(f"{type(exc).__name__}: {exc}")
    return out


@st.composite
def _unpublished_targets(draw):
    """A published row with its drift phase moved, and maybe its pinned j freed or j pinned alone.

    A row without windings may also have its first rotation moved; a CNOT
    row's rotations are its windings', so they stay.
    """
    tag = draw(st.sampled_from(SOLVABLE_TAGS))
    if tag.startswith("S_phi"):
        g = GateId(tag, phi=draw(st.floats(-7.0, 7.0)))
        route = draw(st.sampled_from(["printed", "alternate"])) if tag == "S_phi_q1" else "printed"
        tg = prescription_targets(g, route=route)
    else:
        m, m_prime = draw(st.integers(1, 3)), draw(st.integers(0, 2))
        tg = prescription_targets(GateId(tag), m=m, m_prime=m_prime)
    shift = draw(st.one_of(st.sampled_from([PI, 5 * PI / 4, -PI / 2, 0.0]), st.floats(-7.0, 7.0)))
    tg = dataclasses.replace(tg, delta_plus_1=shift)
    edit = draw(st.sampled_from(["none", "free_j"] + ["rotation", "j_alone"] * (tg.m is None)))
    if edit == "rotation":
        tg = dataclasses.replace(tg, delta_minus_1=draw(st.floats(0.0, 7.0)))
    elif edit == "free_j":
        tg = dataclasses.replace(tg, j_targets=None)
    elif edit == "j_alone":
        # j pinned alone, as on a CNOT row, on a row whose rotations may move
        j = draw(st.tuples(*[st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0]), st.floats(-1.0, 1.0))] * 2))
        tg = dataclasses.replace(tg, j_targets=j, b_targets=None, b_relation_sign=None)
    return tg


@settings(max_examples=150, deadline=None)
@given(_unpublished_targets())
def test_solver_tries_candidates_shortest_first_and_stops_at_the_first_accepted(tg):
    if calib._closed_form(tg) is not None:
        return
    oracle = list(_candidates_oracle(tg))
    built, tried = [], []
    evaluate, params = calib._evaluate, calib.PhysicalParams

    def counting_params(**kwargs):
        built.append(params(**kwargs))
        return built[-1]

    def recording_evaluate(tg, p, w):
        tried.append(p)
        return evaluate(tg, p, w)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(calib, "PhysicalParams", counting_params)
        # a candidate is built only when the caller asks for the next one
        for k, p in enumerate(calib._candidates(tg, calib._target_blocks(tg)), start=1):
            assert len(built) == k
        assert built == oracle
        m.setattr(calib, "_evaluate", recording_evaluate)
        try:
            card = solve_physical(tg)
        except SolverFailure as exc:
            card, message = None, str(exc)
    assert tried == oracle[: len(tried)]
    if card is None:
        assert len(tried) == len(oracle)
        assert f": {len(oracle)} candidates missed;" in message
    else:
        assert card.solved == tried[-1]
        for p in tried[:-1]:
            e = evaluate(tg, p, calib._target_blocks(tg))
            assert max(max(e.residuals.values()), e.realized_error) > ACCEPT_TOL


#: couplings, durations and target angles at the edges: signed zeros, subnormals, huge magnitudes
_EDGE_VALUES = [0.0, -0.0, 5e-324, -5e-324, 6.3e-315, 2.2e-308, -1.0, 1.0, 1e300, -1e300]
_EDGE_ANGLES = [0.0, -0.0, 5e-324, 2.2e-308, PI, TWO_PI, 1e300, 1.7e308]


@st.composite
def _edge_targets(draw):
    """An unpublished row, its drift phase maybe on the pi / 4 grid (exact duration ties).

    A row without windings has its rotations maybe set to edge values; a
    CNOT row's rotations are its windings', so they stay.
    """
    tg = draw(_unpublished_targets())
    if draw(st.booleans()):
        tg = dataclasses.replace(tg, delta_plus_1=draw(st.integers(-8, 8)) * PI / 4)
    if tg.m is None:
        # one rotation in each regime (zero, subnormal, huge, the rest) in turn, the other maybe at any edge
        regime = draw(st.sampled_from([_EDGE_ANGLES[:2], _EDGE_ANGLES[2:4], _EDGE_ANGLES[6:], _EDGE_ANGLES[4:6]]))
        names = draw(st.permutations(["delta_minus_1", "delta_minus_2"]))
        tg = dataclasses.replace(tg, **{names[0]: draw(st.sampled_from(regime))})
        if draw(st.booleans()):
            tg = dataclasses.replace(tg, **{names[1]: draw(st.sampled_from(_EDGE_ANGLES))})
    return tg


def _same_draws(count):
    """Settings that draw the same count examples on every run, so that a test can count what it met."""
    return settings(max_examples=count, deadline=None, derandomize=True, database=None)


def _assert_edge_targets_met(targets):
    # every regime of the inversion, met on each run (about twice these counts in 300 draws):
    # a zero rotation (a degenerate block), a subnormal one, one of 1e300 and more, and j pinned
    # alone on a row without windings and on a CNOT row
    rotations = [(tg.delta_minus_1, tg.delta_minus_2) for tg in targets]
    j_alone = [tg for tg in targets if tg.j_targets is not None and tg.b_targets is None and tg.b_relation_sign is None]
    assert sum(0.0 in rot for rot in rotations) >= 30
    assert sum(any(0.0 < r < sys.float_info.min for r in rot) for rot in rotations) >= 30
    assert sum(max(rot) >= 1e300 for rot in rotations) >= 20
    assert sum(tg.m is None for tg in j_alone) >= 15
    assert sum(tg.m is not None for tg in j_alone) >= 20


def test_candidates_keep_the_bits_of_one_product_per_choice():
    met = []

    @_same_draws(300)
    @given(_edge_targets())
    def check(tg):
        # to_doc JSON tells -0.0 from 0.0, where PhysicalParams equality does not
        met.append(tg)
        w = calib._target_blocks(tg)
        assert _docs(calib._candidates(tg, w)) == _docs(_candidates_oracle(tg))

    check()
    _assert_edge_targets_met(met)


@st.composite
def _edge_controls(draw):
    """A row and controls on its axis: degenerate blocks (|c| = 0), subnormal |c|, t = 0, magnitudes up to 1e300."""
    tg = draw(_unpublished_targets())
    value = st.one_of(st.sampled_from(_EDGE_VALUES), st.floats(-1e300, 1e300))
    # block coordinates (c0, T_1, L_1, T_2, L_2) with some of them zero give exactly degenerate
    # blocks, and a block's (T, L) of signed zeros and subnormals a zero or subnormal |c|
    y = [draw(st.one_of(st.just(0.0), value)) for _ in range(5)]
    if draw(st.booleans()):
        k = draw(st.sampled_from([1, 3]))
        y[k : k + 2] = [draw(st.sampled_from([0.0, -0.0, 5e-324, -6.3e-315, 2.2e-308])) for _ in range(2)]
    x = (_INVERSE[tg.h] @ np.array(y)).tolist() if draw(st.booleans()) else [draw(value) for _ in range(5)]
    t = draw(st.one_of(st.sampled_from([0.0, 5e-324, 6.3e-315, 1.0, 1e300]), st.floats(0.0, 1e300)))
    return tg, PhysicalParams(t=t, J=tuple(x[:3]), B1=x[3], B2=x[4], h=tg.h)


def test_evaluate_keeps_the_bits_of_two_kernel_runs():
    met = []

    @_same_draws(300)
    @given(_edge_controls())
    def check(case):
        # residuals, branch, error and margin to the last bit, or the same error raised; the
        # residuals named in card order as the targets pin them, and |b| of the public block 1
        tg, p = case
        met.append(p)
        w = calib._target_blocks(tg)
        records = []

        def record():
            records.append(calib._evaluate(tg, p, w))
            e = records[-1]
            return tuple(e.residuals.values()), e.phase_branch, e.realized_error, e.branch_margin

        assert _outcome(record) == _outcome(lambda: _evaluate_oracle(tg, p, w))
        if records:
            names = ["delta_plus", "delta_minus_1", "delta_minus_2"]
            names += ["j_1", "j_2"] * (tg.j_targets is not None)
            names += ["b_1", "b_2"] * (tg.b_targets is not None or tg.b_relation_sign is not None)
            assert list(records[0].residuals) == names
            assert repr(records[0].b_abs) == repr(abs(reduced_params(p, bell_frame(tg.h))[0].b))

    check()
    # every regime of the block kernel, met on each run (about twice these counts in 300 draws):
    # a degenerate block (|c| = 0), a subnormal |c|, t = 0, and couplings or durations of 1e300 and more
    norms = [bellframe._block_coefficients(np.array((*p.J, p.B1, p.B2)), p.h)[1].tolist() for p in met]
    assert sum(0.0 in r for r in norms) >= 40
    assert sum(any(0.0 < v < sys.float_info.min for v in r) for r in norms) >= 10
    assert sum(p.t == 0.0 for p in met) >= 25
    assert sum(max(p.t, *map(abs, p.J), abs(p.B1), abs(p.B2)) >= 1e300 for p in met) >= 50


def _solve_oracle(tg):
    # solve_physical with the candidate and evaluation oracles; a failure
    # gives its closest worst residual, the name of that entry and the count
    w = calib._target_blocks(tg)
    closed = calib._closed_form(tg)
    attempts = [closed] if closed is not None else _candidates_oracle(tg)
    best, best_name, tried = math.inf, None, 0
    for p in attempts:
        tried += 1
        res, branch, err, _ = _evaluate_oracle(tg, p, w)
        if err <= ACCEPT_TOL and max(res) <= ACCEPT_TOL:
            return dumps(calib.PrescriptionCard(tg, p, res, err, branch).to_doc())
        names = ["delta_plus", "delta_minus_1", "delta_minus_2"]
        names += ["j_1", "j_2"] * (tg.j_targets is not None)
        names += ["b_1", "b_2"] * (tg.b_targets is not None or tg.b_relation_sign is not None)
        worst = max(max(res), err)
        if worst < best:
            # the first entry at the worst value, in PrescriptionCard order
            best, best_name = worst, next(n for n, v in zip(names + ["realized_error"], (*res, err)) if v == worst)
    return f"SolverFailure: {tried} candidates missed; {best!r} {best_name}"


def _solve_outcome(tg):
    try:
        return dumps(solve_physical(tg).to_doc())
    except SolverFailure as exc:
        found = re.search(r": (\d+ candidates missed;) .* \((\w+)\) against", str(exc))
        return f"SolverFailure: {found[1]} {exc.best_residual!r} {found[2]}"


def test_solver_keeps_the_bits_of_the_per_choice_path():
    met = []

    @_same_draws(300)
    @given(_edge_targets())
    def check(tg):
        # the same card to the last bit, or the same failure, or the same error
        # raised at the same candidate
        met.append(tg)
        assert _outcome(lambda: _solve_outcome(tg)) == _outcome(lambda: _solve_oracle(tg))

    check()
    _assert_edge_targets_met(met)


_KERNEL_ROWS = [
    (prescription_targets(GateId("S_phi_q2", phi=phi)), PI) for phi in (0.05, 2.0, PI - 0.04)
] + [
    (prescription_targets(GateId("S_phi_q1", phi=1.3), route=route), PI) for route in ("printed", "alternate")
] + [
    (prescription_targets(GateId(tag), m=m, m_prime=m_prime), 5 * PI / 4)
    for tag in ("CNOT_12", "CNOT_21")
    for m, m_prime in ((1, 0), (2, 1), (2, 0), (3, 2))
] + [
    # published rows (one closed-form candidate) and a row no candidate meets
    (prescription_targets(GateId("CNOT_21"), m=2, m_prime=2), PI / 4),
    (prescription_targets(GateId("S_phi_q2", phi=0.5)), TWO_PI),
    (prescription_targets(GateId("S_phi_q2", phi=0.5)), 0.7),
]


@pytest.mark.parametrize("row, shift", _KERNEL_ROWS)
def test_solver_runs_the_block_kernel_once_per_candidate(row, shift):
    tg = dataclasses.replace(row, delta_plus_1=shift)
    kernel, evaluate = bellframe._point_coefficients, calib._evaluate
    calls = {"kernel": 0, "evaluate": 0}

    def counting_kernel(x, h):
        calls["kernel"] += 1
        return kernel(x, h)

    def counting_evaluate(tg, p, w):
        calls["evaluate"] += 1
        return evaluate(tg, p, w)

    with pytest.MonkeyPatch.context() as m:
        # both names, so a run reached through bellframe counts too
        m.setattr(bellframe, "_point_coefficients", counting_kernel)
        m.setattr(calib, "_point_coefficients", counting_kernel)
        m.setattr(calib, "_evaluate", counting_evaluate)
        try:
            solve_physical(tg)
        except SolverFailure:
            pass
    assert calls["evaluate"] >= 1
    assert calls["kernel"] == calls["evaluate"]


def _in_frame_order(m, h):
    """m, a matrix in canonical Bell order, with rows and columns in the frame order of axis h."""
    o = frame_permutation(bell_frame(h))
    return m[np.ix_(o, o)]


@pytest.mark.parametrize("tag", ["H_q2", "H_q1", "CNOT_12", "CNOT_21"])
@pytest.mark.parametrize("h", [1, 2, 3])
def test_fixed_gate_blocks_are_the_einsum_of_the_gate(tag, h):
    # the import-time table holds, to the byte, what the per-call construction gives
    w = _in_frame_order(d_gate(GateId(tag)), h).reshape(2, 2, 2, 2)
    want = np.einsum("aij,kjki->ka", bellframe.BLOCK_BASIS, w) / 2.0
    table = calib._FIXED_BLOCKS[(tag, h)]
    assert (table.dtype, table.shape, table.tobytes()) == (want.dtype, want.shape, want.tobytes())
    assert not table.flags.writeable
    tg = dataclasses.replace(prescription_targets(GateId(tag)), h=h)
    assert calib._target_blocks(tg) is table


def test_fixed_gate_table_holds_every_gate_without_a_phase_on_every_axis():
    assert set(calib._FIXED_BLOCKS) == {
        (tag, h) for tag in ("H_q2", "H_q1", "CNOT_12", "CNOT_21") for h in (1, 2, 3)
    }


@pytest.mark.parametrize("tag", ["S_phi_q2", "S_phi_q1"])
@settings(max_examples=300, deadline=None)
@given(
    st.one_of(
        st.floats(allow_nan=False, allow_infinity=False),
        st.integers(-64, 64).map(lambda k: k * PI / 4),
        st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -2.2e-308, 1e300, -1e300, 1.7e308, -1.7e308]),
    ),
    st.sampled_from([1, 2, 3]),
)
def test_phase_gate_blocks_are_built_per_call(tag, phi, h):
    # to the byte, signed zeros included
    tg = dataclasses.replace(prescription_targets(GateId(tag, phi=phi)), h=h)
    w = _in_frame_order(d_gate(tg.gate), tg.h).reshape(2, 2, 2, 2)
    want = np.einsum("aij,kjki->ka", bellframe.BLOCK_BASIS, w) / 2.0
    assert calib._target_blocks(tg).tobytes() == want.tobytes()


def test_solver_builds_no_reduced_block_params(monkeypatch):
    # _evaluate reads the reduced parameters as plain tuples; only the public reduced_params wraps them
    built = []
    init = bellframe.ReducedBlockParams.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(bellframe.ReducedBlockParams, "__init__", counting_init)
    for row, shift in _KERNEL_ROWS:
        try:
            card = solve_physical(dataclasses.replace(row, delta_plus_1=shift))
        except SolverFailure:
            continue
        PrescriptionCard.from_doc(json.loads(dumps(card.to_doc())))
    cnot_family(GateId("CNOT_21"), m=2, field_scale=3.0)
    assert built == []
    reduced_params(PhysicalParams(t=PI / 2, J=(-1.0, -SQ2, 0.0), B1=-SQ2, B2=0.0, h=1), bell_frame(1))
    assert len(built) == 2


@pytest.mark.parametrize(
    "tg",
    [
        dataclasses.replace(prescription_targets(GateId("S_phi_q2", phi=0.5)), delta_plus_1=0.7),
        dataclasses.replace(prescription_targets(GateId("CNOT_21"), m=2, m_prime=1), delta_plus_1=0.3),
        # the published row: its one closed-form candidate misses by rounding
        prescription_targets(GateId("CNOT_12"), m=10**8, m_prime=3),
    ],
    ids=["phase-off-grid", "cnot-phase-off-grid", "huge-winding"],
)
def test_solver_failure_carries_the_closest_candidate(tg):
    w = calib._target_blocks(tg)
    with pytest.raises(SolverFailure) as exc:
        solve_physical(tg)
    p = exc.value.closest
    e = calib._evaluate(tg, p, w)
    assert max(max(e.residuals.values()), e.realized_error) == exc.value.best_residual
    assert f"; the closest, at t = {p.t:.3e}, has worst residual " in str(exc.value)
    # it is the first candidate that misses by the least
    closed = calib._closed_form(tg)
    worsts = [
        max(max(e.residuals.values()), e.realized_error)
        for e in (calib._evaluate(tg, q, w) for q in ([closed] if closed else calib._candidates(tg, w)))
    ]
    assert min(worsts) == exc.value.best_residual
    assert p == ([closed] if closed else list(calib._candidates(tg, w)))[worsts.index(min(worsts))]


def test_solver_failure_without_a_scored_candidate_names_no_duration(monkeypatch):
    # a NaN worst residual never counts as closer than none
    tg = dataclasses.replace(_targets("S_phi_q2"), delta_plus_1=PI)
    names = ("delta_plus", "delta_minus_1", "delta_minus_2", "j_1", "j_2", "b_1", "b_2")
    record = calib._Evaluation(dict.fromkeys(names, math.nan), 1, math.nan, 0.0, math.nan)
    monkeypatch.setattr(calib, "_evaluate", lambda tg, p, w: record)
    with pytest.raises(SolverFailure) as exc:
        solve_physical(tg)
    assert exc.value.closest is None
    assert "; the closest has worst residual inf (None) against " in str(exc.value)


@settings(max_examples=300, deadline=None)
@given(st.floats(0.0, TWO_PI, exclude_min=True))
def test_a_phase_in_one_turn_is_its_own_fold(phi):
    assert calib._canonical_phase(phi) == phi
    assert prescription_targets(GateId("S_phi_q2", phi=phi)).delta_minus_1 == phi


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.floats(-1e300, 1e300), st.sampled_from([0.0, -0.0, -TWO_PI, 2 * TWO_PI, 1e13, 1e15, -1e15])))
def test_the_fold_gives_the_gate_of_the_phase(phi):
    # the gate reduces phi by the exact 2 pi; so does the fold, up to its last bits
    pc = calib._canonical_phase(phi)
    assert 0.0 < pc <= TWO_PI
    assert abs(cmath.exp(1j * pc) - cmath.exp(1j * phi)) <= 1e-15


def _closed_form_oracle(tg):
    # _closed_form as it built the published row as PrescriptionTargets and
    # compared it with the dataclass ==, and built the controls only then
    route = "alternate" if tg.gate.tag == "S_phi_q1" and tg.h == 3 else "printed"
    m = 1 if tg.m is None else tg.m
    m_prime = 0 if tg.m_prime is None else tg.m_prime
    row = prescription_targets(tg.gate, m, m_prime, route)
    return calib._published_row(tg.gate, m, m_prime, route)[1]() if tg == row else None


#: phase angles at the edges: signed zeros, subnormals, near pi, huge
_EDGE_PHASES = st.one_of(
    st.floats(-1e300, 1e300),
    st.floats(-2.3e-308, 2.3e-308),
    st.floats(PI - 1e-9, PI + 1e-9),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, PI, -PI, math.nextafter(PI, 0.0), TWO_PI, 1e300, -1e300]),
)
_WINDINGS = st.one_of(st.integers(0, 4), st.integers(0, 10**306))


@st.composite
def _published_rows(draw):
    """Any published row: every gate, both routes of S_phi_q1, CNOT windings up to the float range."""
    tag = draw(st.sampled_from(SOLVABLE_TAGS))
    if tag.startswith("S_phi"):
        route = draw(st.sampled_from(["printed", "alternate"])) if tag == "S_phi_q1" else "printed"
        return prescription_targets(GateId(tag, phi=draw(_EDGE_PHASES)), route=route)
    if tag.startswith("H"):
        return prescription_targets(GateId(tag))
    m, m_prime = draw(_WINDINGS.filter(lambda m: m >= 1)), draw(_WINDINGS)
    assume(m + m_prime <= calib._MAX_WINDINGS)
    return prescription_targets(GateId(tag), m=m, m_prime=m_prime)


def _field_edits(tg, name):
    """Values one field of tg may be edited to: near and equal values, signed zeros, other kinds."""
    value = getattr(tg, name)
    if name == "gate":
        # another gate of the library, or the same phase gate at another phase
        phase_tag = tg.gate.tag if tg.gate.phi is not None else "S_phi_q2"
        others = [GateId(tag, phi=0.5) for tag in ("S_phi_q2", "S_phi_q1")] + [GateId(tag) for tag in SOLVABLE_TAGS[2:]]
        return st.one_of(st.sampled_from(others), _EDGE_PHASES.map(lambda phi: GateId(phase_tag, phi=phi)))
    if name == "h":
        return st.sampled_from([1, 2, 3])
    if name.startswith("delta"):
        near = [value, -value, math.nextafter(value, math.inf), math.nextafter(value, -math.inf)]
        return st.one_of(st.sampled_from(near + [0.0, -0.0, PI / 4, PI / 2, TWO_PI, 1e300]), st.floats(-1e300, 1e300))
    if name in ("j_targets", "b_targets"):
        pairs = [None, (0.0, 0.0), (-0.0, 0.0), (0.0, -0.0), (-0.0, -0.0), (1.0, -1.0), (-1.0, 1.0), [0.0, 0.0]]
        if value is not None:
            pairs += [tuple(-v for v in value), (value[0], -value[1]), (math.nextafter(value[0], 2.0), value[1])]
        return st.one_of(st.sampled_from(pairs), st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)))
    if name == "b_relation_sign":
        return st.sampled_from([None, 1, -1])
    if name == "b_abs_to_one":
        return st.just(not value)
    # m and m_prime
    near = [] if value is None else [value - 1, value + 1]
    return st.one_of(st.sampled_from([None, 0, 1, 2, 3] + near), _WINDINGS)


@st.composite
def _one_edit(draw):
    """A published row, and no edit or one of its fields with a value to edit it to."""
    tg = draw(_published_rows())
    name = draw(st.sampled_from([None] + [f.name for f in dataclasses.fields(tg)]))
    return tg, {} if name is None else {name: draw(_field_edits(tg, name))}


@st.composite
def _rows_with_one_edit(draw):
    """A published row as it is, or with one field edited alone where the edit builds."""
    tg, edit = draw(_one_edit())
    try:
        return dataclasses.replace(tg, **edit)
    except (ValueError, TypeError):
        assume(False)


@settings(max_examples=400, deadline=None)
@given(_rows_with_one_edit())
def test_closed_form_decides_as_the_built_row_compares(tg):
    # the same controls to the last bit (repr tells -0.0 from 0.0), or None for both
    assert _outcome(lambda: calib._closed_form(tg)) == _outcome(lambda: _closed_form_oracle(tg))


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from([("S_phi_q2", "printed"), ("S_phi_q1", "printed"), ("S_phi_q1", "alternate")]),
    st.sampled_from([1, 2, 3]),
    _EDGE_PHASES,
)
def test_phase_gate_blocks_keep_the_einsum_bits(gate_route, h, phi):
    # every axis, not only the row's: to the byte, signed zeros included
    tag, route = gate_route
    tg = dataclasses.replace(prescription_targets(GateId(tag, phi=phi), route=route), h=h)
    w = _in_frame_order(d_gate(tg.gate), h).reshape(2, 2, 2, 2)
    want = np.einsum("aij,kjki->ka", bellframe.BLOCK_BASIS, w) / 2.0
    got = calib._target_blocks(tg)
    assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())


def test_shifted_target_builds_no_row_and_no_gate_matrix(monkeypatch):
    # a solve compares the row as a plain tuple and builds a phase gate's blocks from its diagonal;
    # the shifts are the bench's: pi on a phase or Hadamard row, 5 pi / 4 on a CNOT row
    targets = [
        dataclasses.replace(row, delta_plus_1=shift)
        for row, shift in [
            (prescription_targets(GateId("S_phi_q2", phi=2.3)), PI),
            (prescription_targets(GateId("S_phi_q1", phi=1.3)), PI),
            (prescription_targets(GateId("S_phi_q1", phi=4.4), route="alternate"), PI),
            (prescription_targets(GateId("H_q1")), PI),
            (prescription_targets(GateId("CNOT_12"), m=2, m_prime=2), 5 * PI / 4),
            (prescription_targets(GateId("CNOT_21"), m=3, m_prime=1), 5 * PI / 4),
        ]
    ]
    built, gates = [], []
    init = calib.PrescriptionTargets.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(calib.PrescriptionTargets, "__init__", counting_init)
    monkeypatch.setattr(calib, "d_gate", lambda g: gates.append(g))
    cards = 0
    for tg in targets:
        try:
            solve_physical(tg)
            cards += 1
        except SolverFailure:
            pass
    assert cards > 0
    assert (built, gates) == ([], [])


@st.composite
def _hand_built_targets(draw):
    """A published row and an edit of any one of its fields, or of a CNOT row's windings and rotations together.

    The joint edit gives the rotations of its windings, by the rule as
    windings_give_rotations states it, so that some edited CNOT rows build.
    """
    tg, edit = draw(_one_edit())
    if tg.m is not None and draw(st.booleans()):
        m, m_prime = draw(_WINDINGS), draw(_WINDINGS)
        edit = {"m": m, "m_prime": m_prime, "delta_minus_1": 2.0 * m * PI, "delta_minus_2": PI / 2 + 2.0 * m_prime * PI}
    return tg, edit


def _target_doc(tg, edit):
    """The gate, m and target fields of tg with edit applied, as a card document holds them."""
    f = {**{name: getattr(tg, name) for name in calib._Row._fields}, **edit}
    return {"gate": f["gate"].tag, "m": f["m"], "targets": {k: f[k] for k in calib._TARGET_KEYS}}


@settings(max_examples=300, deadline=None)
@given(_hand_built_targets())
def test_a_hand_built_target_is_refused_or_survives_the_card_round_trip(case):
    # a target set that builds is solved into a card the card reader reads back, or fails to solve;
    # with its weights left as its row's, it builds exactly when its windings give its rotations
    tg, edit = case
    try:
        built = dataclasses.replace(tg, **edit)
    except (ValueError, TypeError):
        assert {"j_targets", "b_targets", "b_relation_sign"} & set(edit) or not windings_give_rotations(
            _target_doc(tg, edit))
        return
    assert windings_give_rotations(_target_doc(tg, edit))
    try:
        card = solve_physical(built)
    except SolverFailure:
        return
    text = dumps(card.to_doc())
    back = PrescriptionCard.from_doc(json.loads(text))
    assert back == card
    assert dumps(back.to_doc()) == text
