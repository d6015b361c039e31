"""What `bellgate fidelity-sweep` prints, checked against an oracle that calls nothing of bellgate.

The command runs in process and its stdout is parsed, json and csv.  The
sampled states are redrawn here from the seed as sample_states documents
them, and placed in the Bell frame order of conftest.  Every printed
f2_exact is recomputed with bench/oracle.py at its row's (axis, step),
held to the bench's 1e-9, and each state's per_parameter_gradient is held
to the oracle curvature by the bench's GRADIENT_TOL rule.  Each csv row
must name the step of its (state, axis, step) position in its dp column,
and carry the numbers json prints at that position.  Besides fixed cases,
hypothesis draws the state count, the seed and the step grid, on
published, shifted and family cards.  The bench modules are imported by
their path and never changed.
"""

import contextlib
import csv
import dataclasses
import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bellgate import GateId, calib, cnot_family
from bellgate.cli import main
from bellgate.jsonio import dumps

from conftest import FRAME_ORDER, bench_module, drawn_card, drawn_step

oracle = bench_module("oracle")
workloads = bench_module("workloads")

NAMES = ("t", "J1", "J2", "J3", "B1", "B2")


def _run(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    assert (code, err.getvalue()) == (0, "")
    return out.getvalue()


def _card(monkeypatch, tmp_path, kind):
    """A card file: H_q2, S_phi_q2, a CNOT solved for a shifted drift phase, or a family card."""
    path = tmp_path / f"{kind}.json"
    if kind == "family":
        path.write_text(json.dumps(cnot_family(GateId("CNOT_21"), 3, 3.0).to_doc()))
        return path
    argv = {"H_q2": ["H_q2"], "S_phi_q2": ["S_phi_q2", "--phi", "0.4"],
            "CNOT_shifted": ["CNOT_12", "--m", "2", "--m-prime", "1"]}[kind]
    if kind == "CNOT_shifted":
        row = calib.prescription_targets
        monkeypatch.setattr(calib, "prescription_targets",
                            lambda *a, **k: dataclasses.replace(row(*a, **k), delta_plus_1=5 * math.pi / 4))
    _run("synth", *argv, "--out", str(path))
    monkeypatch.undo()
    if kind == "CNOT_shifted":
        assert json.loads(path.read_text())["targets"]["delta_plus_1"] == 5 * math.pi / 4
    return path


def _states(n, seed, h):
    """The sampled states as 4-vectors of the computational basis: normalized Gaussian rows, then the frame."""
    z = np.random.default_rng(seed).standard_normal((n, 8))
    z /= np.linalg.norm(z, axis=1, keepdims=True)
    return (z[:, :4] + 1j * z[:, 4:]) @ oracle.BELL[:, FRAME_ORDER[h]].T


class _Oracle:
    """Propagators of a card's solved point and of its axis displacements."""

    def __init__(self, solved, h):
        self.x0 = np.array([solved["t"], *solved["J"], solved["B1"], solved["B2"]])
        self.h = h
        self.u0 = self._propagator(self.x0)
        self.moved = {}

    def _propagator(self, x):
        return oracle.propagator(x[0], x[1:4], x[4], x[5], self.h)

    def f2(self, psi, i, step):
        if (i, step) not in self.moved:
            x = self.x0.copy()
            x[i] += step
            self.moved[i, step] = self._propagator(x)
        return oracle.fidelity(psi, self.u0, self.moved[i, step])

    def curvature(self, psi):
        hh = workloads.GRADIENT_H / max(1.0, float(np.abs(self.x0).max()))
        return np.array([(1.0 - self.f2(psi, i, hh)) / hh**2 for i in range(6)])


CASES = [
    ("H_q2", "4", "7", "1e-2,5e-3,2.5e-3"),
    ("S_phi_q2", "3", "11", "-5e-3,1e-2"),
    ("CNOT_shifted", "3", "7", "1e-2,-2.5e-3,1e-2"),
    ("family", "3", "5", "2.5e-3,-1e-3"),
]


@pytest.mark.parametrize("kind, states, seed, steps", CASES)
def test_printed_sweep_holds_the_oracle_numbers(monkeypatch, tmp_path, kind, states, seed, steps):
    _check_sweep(_card(monkeypatch, tmp_path, kind), states, seed, steps)


def _check_sweep(card_file, states, seed, steps):
    """The json and csv sweeps of a card file, states, seed and step grid, against the oracle."""
    card = json.loads(card_file.read_text())
    argv = ("fidelity-sweep", str(card_file), "--states", states, "--seed", seed, "--steps=" + steps)
    doc = json.loads(_run(*argv))
    rows = list(csv.DictReader(io.StringIO(_run(*argv, "--format", "csv"))))
    grid = [float(s) for s in steps.split(",")]
    n = int(states)
    psis = _states(n, int(seed), card["h"])
    ref = _Oracle(card["solved"], card["h"])
    order = [(sid, name, step) for sid in range(n) for name in NAMES for step in grid]
    assert len(doc["reports"]) == len(rows) == len(order)
    assert (doc["gate"], doc["phi"], doc["m"]) == (card["gate"], card["phi"], card["m"])
    for (sid, name, step), rep, row in zip(order, doc["reports"], rows):
        i = NAMES.index(name)
        assert (rep["state_id"], rep["param"]) == (sid, name)
        assert rep["dp"] == [step if k == i else 0.0 for k in range(6)]
        assert abs(rep["f2_exact"] - ref.f2(psis[sid], i, step)) <= 1e-9
        assert rep["f2_second_order"] == 1.0 - step * step * rep["per_parameter_gradient"][i]
        assert rep["cubic_residual"] == abs(rep["f2_second_order"] - rep["f2_exact"])
        # the csv row at the same position: its step on its axis, and json's numbers
        assert [row["gate"], *(None if row[k] == "" else float(row[k]) for k in ("phi", "m"))] == [
            card["gate"], card["phi"], card["m"]]
        assert (int(row["state_id"]), row["param"], float(row["dp"])) == (sid, name, step)
        assert [float(row[k]) for k in ("f2_exact", "f2_second_order", "cubic_residual")] == [
            rep["f2_exact"], rep["f2_second_order"], rep["cubic_residual"]]
    for sid, psi in enumerate(psis):
        grad = doc["reports"][sid * 6 * len(grid)]["per_parameter_gradient"]
        coef = ref.curvature(psi)
        assert np.abs(np.asarray(grad) - coef).max() <= workloads.GRADIENT_TOL * np.abs(coef).max()


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_a_drawn_sweep_holds_the_oracle_numbers(tmp_path_factory, data):
    doc = data.draw(drawn_card())
    card_file = tmp_path_factory.getbasetemp() / "drawn-sweep-card.json"
    card_file.write_text(dumps(doc))
    states = str(data.draw(st.integers(1, 4)))
    seed = str(data.draw(st.integers(0, 2**32 - 1)))
    steps = ",".join(map(repr, data.draw(st.lists(drawn_step(doc["solved"]["t"]), min_size=1, max_size=3))))
    _check_sweep(card_file, states, seed, steps)
