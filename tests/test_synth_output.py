"""What `bellgate synth` prints, checked against an oracle that calls nothing of bellgate.

The command runs in process and its stdout is parsed.  From the printed
controls every residual, the realized gate error and the family's b_abs
are recomputed with the Hamiltonian, propagator and Bell-basis gates of
bench/oracle.py and the Bell frame order of conftest: each block restriction
c0 + c . sigma of H is projected out of the frame-ordered Hamiltonian,
and the gate error is 1 - |tr(u^dag g)| / 4 of the whole propagator.  The
bench module is imported by its path and never changed.  The family's
printed b_abs is also held to the bit against the public reduced_params.
"""

import csv
import dataclasses
import io
import json
import math

import numpy as np
import pytest

from bellgate import GateId, PrescriptionCard, bell_frame, calib, cnot_family, reduced_params
from bellgate.checks import ACCEPT_TOL
from bellgate.cli import main

from conftest import FRAME_ORDER, bench_module

PI = math.pi
oracle = bench_module("oracle")

#: the transversal direction (sin(h pi / 2), cos(h pi / 2)) of each field axis
TRANSVERSAL = {1: (1, 0), 2: (0, -1), 3: (-1, 0)}


def _signs(h):
    """(beta, q) of both blocks: beta_k = (-1)^(k (h + 2)), q_k = beta_k (-1)^(h + 1)."""
    beta = tuple((-1) ** (k * (h + 2)) for k in (1, 2))
    return beta, tuple(b * (-1) ** (h + 1) for b in beta)


def _gate(tag, phi):
    if tag == "H_q2":
        return np.kron(oracle.I2, oracle.HADAMARD)
    if tag == "H_q1":
        return np.kron(oracle.HADAMARD, oracle.I2)
    return oracle.bell_gate(tag, phi)


def _circ(x):
    return abs(math.remainder(x, 2.0 * PI))


def _recomputed(tag, phi, targets, t, J, B1, B2, h):
    """Residuals in card order, realized error, branch margin and block 1's |b|, from the controls alone."""
    frame = oracle.BELL[:, FRAME_ORDER[h]]
    hf = frame.conj().T @ oracle.hamiltonian(J, B1, B2, h) @ frame
    basis = (oracle.I2,) + oracle.PAULI
    # (c0, cx, cy, cz) of each block, tr(s_a block) / 2
    c = [[float(np.trace(s @ hf[k:k + 2, k:k + 2]).real) / 2.0 for s in basis] for k in (0, 2)]
    norms = [math.sqrt(cx * cx + cy * cy + cz * cz) for _, cx, cy, cz in c]
    beta, q = _signs(h)
    sx, sy = TRANSVERSAL[h]
    b = [q[k] * (sx * c[k][1] + sy * c[k][2]) / norms[k] for k in (0, 1)]
    j = [beta[k] * c[k][3] / norms[k] for k in (0, 1)]
    dplus = -c[0][0] * t
    d_pos, d_neg = _circ(dplus - targets["delta_plus_1"]), _circ(dplus + targets["delta_plus_1"])
    res = [min(d_pos, d_neg)] + [_circ(norms[k] * t - targets[f"delta_minus_{k + 1}"]) for k in (0, 1)]
    if targets["j_targets"] is not None:
        res += [abs(j[k] - targets["j_targets"][k]) for k in (0, 1)]
    if targets["b_targets"] is not None:
        res += [abs(b[k] - targets["b_targets"][k]) for k in (0, 1)]
    elif targets["b_relation_sign"] is not None:
        res += [abs(b[k] - targets["b_relation_sign"] * q[k] * beta[k] * j[k]) for k in (0, 1)]
    u = oracle.BELL.conj().T @ oracle.propagator(t, J, B1, B2, h) @ oracle.BELL
    err = oracle.phase_distance(u, _gate(tag, phi))
    return res, err, d_pos - d_neg, abs(b[0])


def _tolerance(t, J, B1, B2):
    # rounding of the projected coefficients and of expm both grow with t |H|
    return 1e-12 * max(1.0, t * (sum(abs(x) for x in J) + abs(B1) + abs(B2)))


def _check_card(doc):
    """A printed card's residuals, realized_error and phase_branch against the oracle; its |b| and the tolerance."""
    sv = doc["solved"]
    t, J, B1, B2 = sv["t"], sv["J"], sv["B1"], sv["B2"]
    res, err, margin, b_abs = _recomputed(doc["gate"], doc["phi"], doc["targets"], t, J, B1, B2, doc["h"])
    tol = _tolerance(t, J, B1, B2)
    assert len(doc["residuals"]) == len(res)
    assert max(abs(a - b) for a, b in zip(doc["residuals"] + [doc["realized_error"]], res + [err])) <= tol
    if abs(margin) > tol:
        assert doc["phase_branch"] == (1 if margin < 0 else -1)
    return b_abs, tol


def _synth(capsys, *argv):
    code = main(["synth", *argv])
    out, err = capsys.readouterr()
    assert (code, err) == (0, "")
    return out


@pytest.mark.parametrize(
    "argv",
    [
        ("S_phi_q2", "--phi", "0.7853981633974483"),
        ("S_phi_q1", "--phi", "1.3"),
        ("S_phi_q1", "--phi", "4.4", "--route", "alternate"),
        ("H_q2",),
        ("H_q1",),
        ("CNOT_12", "--m", "2", "--m-prime", "1"),
        ("CNOT_21", "--m", "3", "--m-prime", "5"),
    ],
)
def test_a_printed_card_holds_the_numbers_of_its_printed_controls(capsys, argv):
    doc = json.loads(_synth(capsys, *argv))
    _check_card(doc)
    assert max(doc["residuals"] + [doc["realized_error"]]) <= ACCEPT_TOL
    assert PrescriptionCard.from_doc(doc).to_doc() == doc


@pytest.mark.parametrize(
    "gate, shift",
    [(("H_q2",), PI), (("H_q1",), PI), (("CNOT_12", "--m", "2", "--m-prime", "1"), 5 * PI / 4)],
)
def test_a_card_solved_past_a_rejected_candidate_prints_the_accepted_numbers(capsys, monkeypatch, gate, shift):
    # the command solves its row with the drift phase shifted: exact inversion, whose
    # first candidate these shifts reject, so the card is the second one evaluated
    row = calib.prescription_targets

    def shifted(*args, **kwargs):
        return dataclasses.replace(row(*args, **kwargs), delta_plus_1=shift)

    evaluate, evaluated = calib._evaluate, []

    def counting_evaluate(tg, p, w):
        evaluated.append(p)
        return evaluate(tg, p, w)

    monkeypatch.setattr(calib, "prescription_targets", shifted)
    monkeypatch.setattr(calib, "_evaluate", counting_evaluate)
    doc = json.loads(_synth(capsys, *gate))
    assert len(evaluated) == 2
    assert doc["targets"]["delta_plus_1"] == shift
    _check_card(doc)
    assert max(doc["residuals"] + [doc["realized_error"]]) <= ACCEPT_TOL
    # the printed numbers are, to the bit, those the card reader recomputes from the printed controls
    assert PrescriptionCard.from_doc(doc).to_doc() == doc


def _family_controls(tag, m, fs):
    """A family card's controls, as cnot_family states them: t = 1 / fs, unit exchange, field (2 pi m + pi / 4) fs."""
    drive, hi, lo = PI / 4 * fs, (2 * PI * m + PI / 4) * fs, -PI / 4 * fs
    if tag == "CNOT_12":
        return 1.0 / fs, (drive, 0.5, -0.5), hi, lo, 1
    return 1.0 / fs, (0.5, -0.5, drive), lo, hi, 3


@pytest.mark.parametrize("tag", ["CNOT_12", "CNOT_21"])
@pytest.mark.parametrize("scale", ["1", "10"])
def test_family_csv_rows_hold_the_numbers_of_their_controls(capsys, tag, scale):
    rows = list(csv.DictReader(io.StringIO(_synth(capsys, tag, "--family", "--m", "1..4", "--field-scale", scale,
                                                  "--format", "csv"))))
    assert [int(r["m"]) for r in rows] == [1, 2, 3, 4]
    fs = float(scale)
    for r in rows:
        m = int(r["m"])
        assert (r["gate"], int(r["m_prime"]), float(r["field_scale"])) == (tag, m, fs)
        t, J, B1, B2, h = _family_controls(tag, m, fs)
        assert (int(r["h"]), float(r["t"])) == (h, t)
        targets = {"delta_plus_1": PI / 4, "delta_minus_1": 2 * PI * m, "delta_minus_2": PI / 2 + 2 * PI * m,
                   "j_targets": (0.0, 0.0), "b_targets": None, "b_relation_sign": None}
        _, err, _, b_abs = _recomputed(tag, None, targets, t, J, B1, B2, h)
        tol = _tolerance(t, J, B1, B2)
        assert abs(float(r["realized_error"]) - err) <= tol
        assert abs(float(r["b_abs"]) - b_abs) <= tol


@pytest.mark.parametrize("tag", ["CNOT_12", "CNOT_21"])
@pytest.mark.parametrize("scale", ["1", "10"])
def test_family_json_cards_hold_the_numbers_of_their_controls(capsys, tag, scale):
    doc = json.loads(_synth(capsys, tag, "--family", "--m", "1..4", "--field-scale", scale))
    assert [card["m"] for card in doc["family"]] == [1, 2, 3, 4]
    for card in doc["family"]:
        b_abs, tol = _check_card(card)
        assert abs(card["b_abs"] - b_abs) <= tol


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("scale", ["1", "10", "1e4"])
@pytest.mark.parametrize("tag", ["CNOT_12", "CNOT_21"])
def test_family_b_abs_is_block_1_of_the_public_reduced_params_to_the_bit(capsys, tag, scale, fmt):
    out = _synth(capsys, tag, "--family", "--m", "1..300", "--field-scale", scale, "--format", fmt)
    if fmt == "csv":
        printed = [float(r["b_abs"]) for r in csv.DictReader(io.StringIO(out))]
    else:
        printed = [card["b_abs"] for card in json.loads(out)["family"]]
    want = []
    for m in range(1, 301):
        card = cnot_family(GateId(tag), m=m, field_scale=float(scale))
        want.append(abs(reduced_params(card.solved, bell_frame(card.targets.h))[0].b))
    assert [v.hex() for v in printed] == [v.hex() for v in want]
