"""Rewrite contract.json, the output contract of the bellgate command, from the case list below.

Each case is an argv and the input files it reads, inline.  The script
runs every case in process through bellgate.cli.main, in an empty
directory that holds those files, and records the exit code, the sha256
of stdout, the stderr text, the sha256 of every file the run wrote
(--out) and every warning it raised.  tests/test_contract.py runs each
case again with the same runner and compares.

The contract is a regression contract, not a correctness oracle: its
expected bytes come from the program.  A deliberate change of output is
this command and the diff of contract.json:

    PYTHONPATH=src python3 tests/data/make_contract.py

It uses only the standard library and bellgate.  The inputs that other
programs draw (the benchmark's cli workload, the exit-contract property
tests of tests/test_cli.py) are copied here as literals.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import math
import os
import tempfile
import warnings
from pathlib import Path

from bellgate import cli
from bellgate.calib import cnot_family, prescription_targets, solve_physical
from bellgate.gates import GateId
from bellgate.jsonio import dumps

DATA = Path(__file__).resolve().parent
CONTRACT = DATA / "contract.json"

PARAMS = '{"t": 1.2, "J": [0.7, -0.4, 0.9], "B1": 0.3, "B2": -0.6, "h": 1}'
CIRCUIT = (
    '{"basis": "computational", "gates": '
    '[{"gate": "B_H", "qubit": 1}, {"gate": "B_CNOT12"}, {"gate": "B_S8", "qubit": 2}]}'
)
#: an integer past the float range
HUGE = 10**400
#: nested past the JSON parser's recursion limit
DEEP = "[" * 5000 + "]" * 5000


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _invoke(argv, files: dict, where: Path) -> tuple[int, str, str, list[str]]:
    """bellgate argv in process, in directory where holding files: exit code, stdout, stderr, warnings."""
    for name, text in files.items():
        (where / name).write_text(text, encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(where)
    try:
        with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            warnings.simplefilter("always")
            code = cli.main(list(argv))
    finally:
        os.chdir(cwd)
    return code, out.getvalue(), err.getvalue(), [f"{w.category.__name__}: {w.message}" for w in caught]


def run(argv, files: dict, where) -> dict:
    """The recorded result of one case, run in the empty directory where."""
    where = Path(where)
    code, out, err, caught = _invoke(argv, files, where)
    result = {"exit": code, "stdout_sha256": _sha256(out.encode("utf-8")), "stderr": err}
    written = {p.name: _sha256(p.read_bytes()) for p in sorted(where.iterdir()) if p.name not in files}
    if written:
        result["written"] = written
    if caught:
        result["warnings"] = caught
    return result


def _stdout(*argv) -> str:
    """What a successful bellgate argv prints."""
    with tempfile.TemporaryDirectory() as where:
        code, out, err, _ = _invoke(argv, {}, Path(where))
    assert (code, err) == (0, ""), (argv, err)
    return out


def _edited(text: str, edit) -> str:
    doc = json.loads(text)
    edit(doc)
    return json.dumps(doc)


def _set(*path_and_value):
    """An edit that sets doc[k1][k2]... = value."""
    *path, key, value = path_and_value

    def edit(doc):
        for k in path:
            doc = doc[k]
        doc[key] = value

    return edit


def _circuit(*entries, basis="computational") -> str:
    return json.dumps({"basis": basis, "gates": list(entries)})


def _params(t, J, B1, B2, h) -> str:
    return json.dumps({"t": t, "J": J, "B1": B1, "B2": B2, "h": h})


def _opaque(entry=1):
    rows = [[{"re": int(r == c), "im": 0} for c in range(4)] for r in range(4)]
    rows[0][0]["re"] = entry
    return {"gate": "OPAQUE", "matrix": rows}


def _readme_cases(card: str):
    files = {"params.json": PARAMS, "circuit.json": CIRCUIT, "card.json": card}
    for name, argv in [
        ("evolve-csv", ("evolve", "params.json", "--format", "csv")),
        ("evolve-json", ("evolve", "params.json")),
        ("blocks", ("blocks", "params.json")),
        ("synth-phase", ("synth", "S_phi_q2", "--phi", "0.7853981633974483")),
        ("synth-family-csv", ("synth", "CNOT_12", "--family", "--m", "1..4", "--format", "csv")),
        ("compile", ("compile", "circuit.json")),
        ("synth-out", ("synth", "H_q2", "--out", "out.json")),
        ("fidelity-sweep-csv", ("fidelity-sweep", "card.json", "--states", "2", "--steps", "1e-2,5e-3",
                                "--format", "csv")),
    ]:
        yield f"readme/{name}", argv, files


def _compile_cases():
    qubitless = {"gate": "B_H"}
    circuits = {
        "all-gates": (DATA / "compile_all_gates.json").read_text(encoding="utf-8"),
        "readme": CIRCUIT,
        "empty": _circuit(),
        "bell-input": _circuit({"gate": "H_q1"}, basis="bell"),
        "bell-empty": _circuit(basis="bell"),
        "qubitless-B_S8": _circuit({"gate": "B_S8"}),
        "qubitless-B_S4": _circuit({"gate": "B_S4"}),
        "qubitless-B_H": _circuit(qubitless),
        "qubitless-before-wrong-basis": _circuit(qubitless, {"gate": "H_q2"}),
        "qubitless-after-wrong-basis": _circuit({"gate": "H_q2"}, qubitless),
        "qubitless-after-cnot": _circuit({"gate": "B_CNOT12"}, qubitless),
        "qubitless-before-opaque": _circuit(qubitless, _opaque()),
        "qubitless-after-opaque": _circuit(_opaque(), qubitless),
        "qubitless-before-unknown-tag": _circuit(qubitless, {"gate": "X_gate"}),
        "qubit-on-cnot": _circuit({"gate": "B_CNOT12", "qubit": 1}),
        "qubit-3": _circuit({"gate": "B_H", "qubit": 3}),
        "qubit-true": _circuit({"gate": "B_H", "qubit": True}),
        "qubit-float": _circuit({"gate": "B_H", "qubit": 2.0}),
        "no-gate-key": _circuit({"qubit": 1}),
        "entry-key": _edited(CIRCUIT, lambda d: d["gates"][1].update(qbit=1)),
        "top-level-key": _edited(CIRCUIT, lambda d: d.update(extra=True)),
        "gates-not-a-list": '{"basis": "computational", "gates": 5}',
        "not-an-object": '"nope"',
        "opaque-huge-entry": _circuit(_opaque(HUGE)),
        "nested-too-deep": DEEP,
    }
    for name, text in circuits.items():
        yield f"compile/{name}", ("compile", "circuit.json"), {"circuit.json": text}
    yield "compile/missing-file", ("compile", "no-such-file.json"), {}


def _matrix_cases():
    params = {
        "readme": PARAMS,
        "h2": _params(0.8, [0.3, 1.1, -0.7], -0.2, 0.9, 2),
        "h3": _params(2.5, [-1.3, 0.4, 0.6], 0.8, 0.1, 3),
        "t0-zero": '{"t": 0.0, "J": [0, 0, 0], "B1": 0, "B2": 0, "h": 2}',
        "t0-couplings": _params(0.0, [0.7, -0.4, 0.9], 0.3, -0.6, 3),
        "degenerate-block": _params(0.9, [0.5, 0.8, 0.8], 0.4, -0.4, 1),
        "small-couplings": '{"t": 1e14, "J": [0.0, 1e-14, 0.0], "B1": 0.0, "B2": 0.0, "h": 1}',
        "large-couplings": '{"t": 1e-200, "J": [0.0, 1e200, 0.0], "B1": 0.0, "B2": 0.0, "h": 1}',
        "overflowing-phase": '{"t": 1e308, "J": [3.0, 0.0, 0.0], "B1": 0.0, "B2": 0.0, "h": 1}',
        "overflowing-sum": '{"t": 1.0, "J": [1.7e308, 1.7e308, 0.0], "B1": 0.0, "B2": 0.0, "h": 1}',
        "overflowing-block": _params(1.0, [0.0, 0.0, 1.7e308], 0.0, 1.7e308, 1),
        "t-string": '{"t": "soon"}',
        "t-negative": PARAMS.replace('"t": 1.2', '"t": -1.2'),
        "t-true": PARAMS.replace('"t": 1.2', '"t": true'),
        "t-huge-integer": PARAMS.replace('"t": 1.2', f'"t": {HUGE}'),
        "J-string": PARAMS.replace("-0.4", '"-0.4"'),
        "J-huge-integer": PARAMS.replace("-0.4", str(HUGE)),
        "B1-false": PARAMS.replace('"B1": 0.3', '"B1": false'),
        "B2-string": PARAMS.replace('"B2": -0.6', '"B2": "-0.6"'),
        "h-true": PARAMS.replace('"h": 1', '"h": true'),
        "h-float": PARAMS.replace('"h": 1', '"h": 3.0'),
        "h-4": PARAMS.replace('"h": 1', '"h": 4'),
        "unknown-key": _edited(PARAMS, lambda d: d.update(B3=9.0)),
        "nested-too-deep": DEEP,
    }
    for name, text in params.items():
        files = {"params.json": text}
        yield f"evolve/{name}", ("evolve", "params.json"), files
        yield f"evolve/{name}-csv", ("evolve", "params.json", "--format", "csv"), files
        yield f"blocks/{name}", ("blocks", "params.json"), files
    for h in ("1", "2", "3"):
        yield f"blocks/cross-h-{h}", ("blocks", "params.json", "--cross-h", h), {"params.json": PARAMS}
    files = {"params.json": PARAMS}
    yield "blocks/cross-h-4", ("blocks", "params.json", "--cross-h", "4"), files
    yield "blocks/format-csv", ("blocks", "params.json", "--format", "csv"), files
    yield "blocks/missing-file", ("blocks", "no-such-file.json"), {}
    yield "evolve/out-directory", ("evolve", "params.json", "--out", "."), files
    yield "evolve/out", ("evolve", "params.json", "--out", "u.json"), files


def _synth_cases():
    argvs = {
        "H_q2": ("H_q2",),
        "H_q1": ("H_q1",),
        "CNOT_12": ("CNOT_12",),
        "CNOT_21": ("CNOT_21",),
        "CNOT_12-m2-m_prime1": ("CNOT_12", "--m", "2", "--m-prime", "1"),
        "CNOT_21-m3-m_prime0": ("CNOT_21", "--m", "3", "--m-prime", "0"),
        "CNOT_12-m1000-m_prime3": ("CNOT_12", "--m", "1000", "--m-prime", "3"),
        "CNOT_21-m1000000": ("CNOT_21", "--m", "1000000"),
        "solver-failure": ("CNOT_12", "--m", "100000000", "--m-prime", "3"),
        "m-huge": ("CNOT_12", "--m", str(HUGE)),
        "m_prime-huge": ("CNOT_12", "--m-prime", str(HUGE)),
        "m-0": ("CNOT_12", "--m", "0"),
        "m_prime-negative": ("CNOT_12", "--m-prime=-1"),
    }
    phis = ["0.7853981633974483", "0.39269908169744814", "0.5", "0", "3.141592653589793",
            "6.283185307179586", "-5e-3", "1e-300", "1e12", "1e13", "1e15", "1e300", "-1e13"]
    for phi in phis:
        argvs[f"S_phi_q2-phi{phi}"] = ("S_phi_q2", f"--phi={phi}")
        argvs[f"S_phi_q1-phi{phi}"] = ("S_phi_q1", f"--phi={phi}")
        argvs[f"S_phi_q1-alternate-phi{phi}"] = ("S_phi_q1", "--route", "alternate", f"--phi={phi}")
    argvs["S_phi_q1-printed-route"] = ("S_phi_q1", "--phi", "0.5", "--route", "printed")
    for tag in ("CNOT_12", "CNOT_21"):
        for scale in ("1", "10", "1e4"):
            family = (tag, "--family", "--m", "1..50", "--field-scale", scale)
            argvs[f"family-{tag}-fs{scale}-csv"] = family + ("--format", "csv")
            argvs[f"family-{tag}-fs{scale}-json"] = family
    argvs.update({
        "family-default": ("CNOT_21", "--family", "--format", "csv"),
        "family-fs1e6-m8": ("CNOT_12", "--family", "--m", "8..8", "--field-scale", "1e6", "--format", "csv"),
        "family-fs1e200": ("CNOT_12", "--family", "--m", "1..2", "--field-scale", "1e200"),
        "family-fs5e-324": ("CNOT_12", "--family", "--m", "1..2", "--field-scale", "5e-324"),
        "family-fs1e308": ("CNOT_12", "--family", "--m", "1..2", "--field-scale", "1e308"),
        "family-fs-negative": ("CNOT_12", "--family", "--m", "1..2", "--field-scale", "-1e3"),
        "family-fs-prefix": ("CNOT_12", "--family", "--m", "1..2", "--fi", "-1e3"),
        "family-m-huge": ("CNOT_12", "--family", "--m", str(HUGE)),
        "family-range-huge": ("CNOT_12", "--family", "--m", f"1..{HUGE}"),
        "family-range-empty": ("CNOT_12", "--family", "--m", "3..2"),
        "family-range-unreadable": ("CNOT_12", "--family", "--m", "1..x"),
        "family-m_prime": ("CNOT_12", "--family", "--m", "1..2", "--m-prime", "7", "--format", "csv"),
        "family-route": ("CNOT_12", "--family", "--m", "1..2", "--route", "alternate", "--format", "csv"),
        "family-of-H_q2": ("H_q2", "--family"),
        "family-of-S_phi_q1": ("S_phi_q1", "--phi", "1", "--family"),
        "range-without-family": ("CNOT_12", "--m", "2..4"),
        "m-not-an-integer": ("CNOT_12", "--m", "abc"),
        "m-float": ("CNOT_12", "--m", "1.5"),
        "field-scale-without-family": ("H_q2", "--field-scale", "5"),
        "csv-without-family": ("H_q2", "--format", "csv"),
        "H_q2-m": ("H_q2", "--m", "3"),
        "H_q1-m_prime": ("H_q1", "--m-prime", "2"),
        "S_phi_q2-m": ("S_phi_q2", "--phi", "1", "--m", "5", "--m-prime", "2"),
        "S_phi_q1-no-phi": ("S_phi_q1",),
        "H_q2-phi": ("H_q2", "--phi", "0.3"),
        "phi-inf": ("S_phi_q2", "--phi", "-inf"),
        "phi-prefix": ("S_phi_q2", "--ph", "-5e-3"),
        "phi-one-letter": ("S_phi_q2", "--p", "-1E2"),
        "phi-no-value": ("S_phi_q2", "--phi"),
        "phi-not-a-number": ("S_phi_q2", "--phi", "-x"),
        "phi-option-next": ("S_phi_q2", "--phi", "--m", "2"),
        "phi-invalid": ("S_phi_q2", "--phi", "abc"),
        "ambiguous-prefix": ("S_phi_q2", "--f", "-5e-3"),
        "field-scale-not-a-number": ("CNOT_12", "--family", "--field-scale", "-e3"),
        "steps": ("H_q2", "--steps", "-1e-2"),
        "seed": ("H_q2", "--seed", "3"),
        "tolerance": ("H_q2", "--tol-synthesis", "1e-3"),
        "gate-without-row": ("B_H",),
        "no-gate": (),
    })
    for name, argv in argvs.items():
        yield f"synth/{name}", ("synth", *argv), {}


def _usage_cases():
    for name, argv in {
        "no-command": (),
        "unknown-command": ("transmogrify",),
        "blocks-tolerance": ("blocks", "x.json", "--tol-structural", "1"),
        "evolve-seed": ("evolve", "x.json", "--seed", "3"),
        "compile-seed": ("compile", "x.json", "--seed", "3"),
        "compile-format": ("compile", "x.json", "--format", "csv"),
        "compile-phi": ("compile", "circuit.json", "--phi", "-5e-3"),
        "evolve-steps": ("evolve", "x.json", "--steps", "-5e-3"),
    }.items():
        yield f"usage/{name}", argv, {}


def _sweep_cases(card: str):
    family = json.loads(_stdout("synth", "CNOT_12", "--family", "--m", "3", "--field-scale", "3"))["family"][0]
    del family["b_abs"]
    cards = {
        "H_q2": card,
        "family": json.dumps(family),
        "S_phi_q2": _stdout("synth", "S_phi_q2", "--phi", "0.7"),
        "CNOT_21": _stdout("synth", "CNOT_21", "--m", "2", "--m-prime", "1"),
    }
    for name, text in cards.items():
        files = {"card.json": text}
        for fmt in ("json", "csv"):
            yield f"fidelity-sweep/{name}-{fmt}", ("fidelity-sweep", "card.json", "--states", "2", "--format", fmt), files
    files = {"card.json": card}
    for name, argv in {
        "defaults-csv": ("--format", "csv"),
        "seed": ("--states", "3", "--seed", "11"),
        "negative-steps": ("--states", "1", "--steps", "-5e-3"),
        "negative-grid": ("--states", "1", "--steps", "-1e-2,5e-3"),
        "negative-grid-attached": ("--states", "1", "--steps=-0.005,-1E-2"),
        "steps-prefix": ("--states", "1", "--ste", "-5e-3"),
        "ambiguous-prefix": ("--st", "-5e-3"),
        "steps-minus-5": ("--states", "1", "--steps", "-5"),
        "steps-nan": ("--states", "1", "--steps", "nan"),
        "steps-attached-nan": ("--states", "1", "--steps=-5,nan"),
        "steps-empty": ("--states", "1", "--steps", ","),
        "steps-overflow": ("--states", "1", "--steps", "1e200"),
        "steps-no-value": ("--states", "1", "--steps"),
        "steps-option-next": ("--states", "1", "--steps", "--seed", "3"),
        "steps-not-a-grid": ("--states", "1", "--steps", "-x"),
        "states-past-memory": ("--states", "100000000000000"),
        "field-scale": ("--field-scale", "-1e3"),
    }.items():
        yield f"fidelity-sweep/{name}", ("fidelity-sweep", "card.json", *argv), files
    yield "fidelity-sweep/missing-file", ("fidelity-sweep", "no-such-file.json"), {}
    yield "fidelity-sweep/nested-too-deep", ("fidelity-sweep", "card.json"), {"card.json": DEEP}

    cnot = _stdout("synth", "CNOT_12", "--m", "2", "--m-prime", "1")
    phase = _stdout("synth", "S_phi_q2", "--phi", "0.5")

    def infeasible(doc):
        doc["targets"]["j_targets"] = [1.5, -1.0]
        doc["residuals"][3:5] = [2.5, 2.0]

    edits = {
        "m-float": (card, _set("m", 2.5)),
        "m-true": (card, _set("m", True)),
        "m_prime-true": (card, _set("targets", "m_prime", True)),
        "m_prime-float": (card, _set("targets", "m_prime", 1.0)),
        "relation-2": (card, _set("targets", "b_relation_sign", 2)),
        "delta-true": (card, _set("targets", "delta_plus_1", True)),
        "b_abs-string": (card, _set("targets", "b_abs_to_one", "false")),
        "branch-float": (card, _set("phase_branch", 1.7)),
        "error-string": (card, _set("realized_error", "1e-3")),
        "j-strings": (card, _set("targets", "j_targets", ["0", "x"])),
        "residuals-string": (card, _set("residuals", "00000")),
        "delta_plus_1-null": (card, _set("targets", "delta_plus_1", None)),
        "delta_minus_1-null": (card, _set("targets", "delta_minus_1", None)),
        "delta_minus_2-null": (card, _set("targets", "delta_minus_2", None)),
        "b_abs-null": (card, _set("targets", "b_abs_to_one", None)),
        "phi-true": (phase, _set("phi", True)),
        "phi-false": (phase, _set("phi", False)),
        "solved-t-true": (phase, _set("solved", "t", True)),
        "solved-B2-string": (phase, _set("solved", "B2", "0.0")),
        "unknown-key": (card, _set("phase_brnach", 1)),
        "unknown-targets-key": (card, _set("targets", "delta_plus_2", 0.0)),
        "edited-realized-error": (card, _set("realized_error", 0.5)),
        "edited-residual": (card, lambda d: d["residuals"].__setitem__(1, 9.0)),
        "edited-phase-branch": (card, lambda d: d.update(phase_branch=-d["phase_branch"])),
        "dropped-residual": (card, lambda d: d["residuals"].pop()),
        "edited-both": (card, lambda d: d.update(realized_error=0.5, residuals=[9.0])),
        "solved-t-huge-integer": (card, _set("solved", "t", HUGE)),
        "residual-huge-integer": (card, lambda d: d.update(residuals=[HUGE] + d["residuals"][1:])),
        "overflowing-evolution": (card, _set("solved", "t", 1e308)),
        "overflowing-block-coefficients": (card, _set("solved", "J", [0.0, 1.7e308, -1.7e308])),
        "family-overflowing-phase": (json.dumps(family), _set("solved", "t", 1e308)),
        "cnot-edited-windings": (cnot, _set("m", 7)),
        "cnot-null-windings": (cnot, lambda d: (d.update(m=None), d["targets"].update(m_prime=None))),
        "cnot-null-m_prime": (cnot, _set("targets", "m_prime", None)),
        "cnot-null-m": (cnot, _set("m", None)),
        "non-cnot-m": (card, _set("m", 3)),
        "non-cnot-m_prime": (card, _set("targets", "m_prime", 5)),
        "gate-T_translator": (card, _set("gate", "T_translator")),
        "gate-B_H": (card, _set("gate", "B_H")),
        "infeasible-weights": (phase, infeasible),
    }
    for name, (text, edit) in edits.items():
        yield f"fidelity-sweep/card-{name}", ("fidelity-sweep", "card.json", "--states", "1"), {
            "card.json": _edited(text, edit)}


def _winding_cases():
    # a card per winding from 1e7 to 1e300, with m_prime 0 and 3, and a winding past the bound
    for tag in ("CNOT_12", "CNOT_21"):
        for k in (7, 10, 100, 300):
            yield f"synth/{tag}-m1e{k}", ("synth", tag, "--m", str(10**k)), {}
            yield f"synth/{tag}-m1e{k}-m_prime3", ("synth", tag, "--m", str(10**k), "--m-prime", "3"), {}
    yield "synth/CNOT_12-m1e308", ("synth", "CNOT_12", "--m", str(10**308)), {}


def _shifted_card(tag, delta_plus_1, phi=None, **kw) -> str:
    """The card of tag's published row with another delta_plus_1, as the solver inverts it."""
    row = prescription_targets(GateId(tag, phi=phi), **kw)
    return dumps(solve_physical(dataclasses.replace(row, delta_plus_1=delta_plus_1)).to_doc())


def _shifted_sweep_cases():
    # H_q2 and H_q1 take the Hadamard-relation branch of the inversion, the
    # printed S_phi_q1 row the invisible-axis branch
    cards = {
        "H_q2": _shifted_card("H_q2", math.pi),
        "H_q1": _shifted_card("H_q1", 2 * math.pi),
        "S_phi_q1-printed": _shifted_card("S_phi_q1", 0.5 + math.pi, phi=0.5, route="printed"),
        "CNOT_12": _shifted_card("CNOT_12", 5 * math.pi / 4, m=2, m_prime=1),
        "CNOT_21": _shifted_card("CNOT_21", 5 * math.pi / 4, m=2, m_prime=0),
    }
    for name, text in cards.items():
        files = {"card.json": text}
        for fmt in ("json", "csv"):
            yield f"fidelity-sweep/shifted-{name}-{fmt}", ("fidelity-sweep", "card.json", "--states", "2",
                                                          "--format", fmt), files
    # the first error in (axis, step) order: a negative time on axis 0 or an overflowing expansion
    family = dumps(cnot_family(GateId("CNOT_12"), 1, 1.0).to_doc())
    for name, text in {"CNOT_12": _stdout("synth", "CNOT_12"), "CNOT_12-family": family}.items():
        for grid in ("7e153,-5", "-5,7e153"):
            yield f"fidelity-sweep/mixed-grid-{name}-{grid}", ("fidelity-sweep", "card.json", "--states", "4",
                                                               f"--steps={grid}"), {"card.json": text}


#: the benchmark's cli workload, seeds 0-3: two parameter sets (t, J, B1, B2, h), two circuits, the phase
#: angle, the cross axis and the family's last winding and field scale
BENCH_CLI = {
    0: {"params": ((1.2685434731046734, [1.532287742430917, -1.0856293128216743, -0.35741361714601405],
                    -0.21322687751940972, 1.0851292321979362, 2),
                   (2.507784349770654, [-0.5976581383583439, -1.945844621444912, -0.24045831873973267],
                    -0.20028439999806613, 1.4763340724666225, 1)),
        "circuits": (("B_CNOT21", "B_CNOT21", "B_H2", "B_CNOT21", "B_CNOT12", "B_S82"),
                     ("B_CNOT21", "B_CNOT21", "B_CNOT12", "B_H2", "B_CNOT21", "B_CNOT21", "B_CNOT12")),
        "phi": "0.828578", "cross_h": "2", "m": "1..4", "field_scale": "1"},
    1: {"params": ((3.9715077624991455, [-0.4206993825701342, 1.4011101512116002, 1.6894391902122603],
                    0.08195356155619882, 1.3442901824215805, 1),
                   (0.8917963257928065, [-1.149121274212006, -0.8552907910024619, 0.45590581446086054],
                    0.9259155571799442, -1.9297858992404113, 1)),
        "circuits": (("B_CNOT21", "B_H1"),
                     ("B_H2", "B_H2", "B_CNOT21", "B_S81", "B_H2", "B_S41", "B_CNOT21", "B_H2")),
        "phi": "3.069552", "cross_h": "3", "m": "1..2", "field_scale": "3"},
    2: {"params": ((2.6723908665350953, [0.06748577284942314, 0.6085602794739438, -0.6848584049826019],
                    1.7896627451675284, 0.3666419965283976, 1),
                   (1.7905404322277805, [1.9775612776069762, 1.840249549351363, -1.8483645025625002],
                    -0.7726007756121849, -0.04071549829579535, 3)),
        "circuits": (("B_CNOT12", "B_H1", "B_CNOT21", "B_CNOT21", "B_S42", "B_S81", "B_CNOT21"),
                     ("B_S42", "B_S42", "B_S81", "B_S82")),
        "phi": "5.292661", "cross_h": "2", "m": "1..4", "field_scale": "10"},
    3: {"params": ((2.992336979886673, [1.5935497591354473, -0.17689928264888932, -1.5307481724392744],
                    -1.5879060945440489, 0.043395906045144095, 3),
                   (0.8503589803202927, [1.4528428937578632, 0.465503271011114, 0.7217381820787949],
                    -0.961102523569874, -0.020944756372926143, 3)),
        "circuits": (("B_CNOT21", "B_CNOT12"),
                     ("B_CNOT21", "B_H1", "B_CNOT21", "B_H2", "B_S41", "B_CNOT12", "B_CNOT21", "B_S41")),
        "phi": "5.718633", "cross_h": "3", "m": "1..4", "field_scale": "3"},
}


def _bench_gate(name: str) -> dict:
    # a CNOT as it is, a one-level gate with its qubit as the last character
    return {"gate": name} if name.startswith("B_CNOT") else {"gate": name[:-1], "qubit": int(name[-1])}


def _bench_cli_cases(card: str):
    for seed, w in BENCH_CLI.items():
        files = {f"params{k}.json": _params(*p) for k, p in enumerate(w["params"])}
        files.update({f"circuit{k}.json": _circuit(*map(_bench_gate, c)) for k, c in enumerate(w["circuits"])})
        files.update({"card0.json": card, "card1.json": _stdout("synth", "S_phi_q2", "--phi", w["phi"])})
        for k, argv in enumerate([
            ("evolve", "params0.json"),
            ("blocks", "params1.json", "--cross-h", w["cross_h"]),
            ("synth", "S_phi_q1", "--phi", w["phi"]),
            ("compile", "circuit0.json"),
            ("fidelity-sweep", "card0.json", "--states", "2"),
            ("evolve", "params1.json", "--format", "csv"),
            ("blocks", "params0.json"),
            ("synth", "CNOT_12", "--family", "--m", w["m"], "--field-scale", w["field_scale"]),
            ("compile", "circuit1.json"),
            ("fidelity-sweep", "card1.json", "--states", "2", "--format", "csv"),
        ]):
            yield f"bench-cli/seed{seed}-{k}-{argv[0]}", argv, files


#: a fixed sample of the exit-contract property tests' draws (tests/test_cli.py), one list per test
DRAWN_SYNTH = [
    ("S_phi_q2", "--phi", "0", "--format", "json"),
    ("CNOT_21", "--format", "csv", "--fa", "--m", "100000000"),
    ("CNOT_21", "--fo", "csv", "--family", "--m", "100000000"),
    ("CNOT_12", "--m", f"{10**8}..{HUGE + 10**8}", "--field-scal", "-inf", "--f", "--format", "json"),
    ("S_phi_q2", "--m-prime", "-1"),
    ("S_phi_q1", "--route=alternate", "--format", "json", "--phi=835.9055693684959"),
    ("H_q2", "--route", "printed", "--format", "json"),
    ("H_q1", "--format", "csv"),
]
DRAWN_PARAMS = [
    ({"t": 3.8310449691515647, "J": [1.3750536623247873, 5e-324, 1.3750536623247873], "B1": -0.14736624772140816,
      "B2": 0.14736624772140816, "h": 2}, ("blocks",)),
    ({"t": 3.8310449691515647, "J": [0.0, 0.0, 0.0], "B1": 1.3750536623247873, "B2": -1.3750536623247873, "h": 2},
     ("blocks",)),
    ({"t": -0.0, "J": [2.4770870003210463e-32, 1.453754435298852, -0.0], "B1": -0.0, "B2": 1.453754435298852,
      "h": 2}, ("evolve",)),
    ({"t": 5e-324, "J": [0.0, -4.4354381765584673e-110, -4.4354381765584673e-110], "B1": -5e-324, "B2": 5e-324,
      "h": 1}, ("blocks", "--cross-h", "2")),
    ({"t": 5e-324, "J": [-7.10737834300533e-286, -7.10737834300533e-286, 2.0], "B2": -1.7976931348623157e+308,
      "h": 3}, ("blocks", "--format", "csv")),
    ({"t": 0.0, "J": [-1.7976931348623157e+308, -1.7976931348623157e+308, -1.7976931348623157e+308],
      "B1": 1.7976931348623157e+308, "B2": -1.7976931348623157e+308, "h": 1}, ("blocks", "--cross-h", "2")),
    ({"t": 1e+308, "J": [1.7e+308, 1.7e+308, 1.7976931348623157e+308], "B1": 1.7976931348623157e+308,
      "B2": 1e+300, "h": 1}, ("evolve",)),
    ({"t": 0.0, "J": [5e-324, 5e-324, 1e-08], "B1": -1.7976931348623157e+308, "B2": 1e-08, "h": 1},
     ("evolve", "--format", "json")),
    ({"t": 1e+308, "J": [1.7976931348623157e+308, -1.7976931348623157e+308, 5e-324], "B1": -1.6787149586294623,
      "B2": -1.6787149586294623, "h": []}, ("blocks", "--cross-h", "2")),
    ({"t": 0.0, "J": [-0.0, -0.0, 5e-324], "B1": -0.0, "B2": 0.0, "h": 3}, ("blocks", "--cross-h", "1")),
]
_EYE = [[float(r == c) for c in range(4)] for r in range(4)]
DRAWN_CIRCUITS = [
    {"basis": "computational", "gates": [{"gate": "S_phi_q2", "phi": 0.5}]},
    {"basis": None, "gates": [{"gate": "B_S8", "qubit": 1}, {"gate": "B_S4", "qubit": 1}, {"gate": "B_S4", "qubit": 2},
                              [], {"gate": "B_CNOT21"}]},
    {"basis": None, "gates": [{"gate": "B_H", "qubit": 1}, {"gate": "B_H", "qubit": 1}, {"gate": "B_S4", "qubit": 2},
                              {"gate": "B_H", "qubit": 1}, {"gate": "B_H", "qubit": 1}]},
    {"basis": "spin", "gates": [{"gate": "B_S8", "qubit": 1}]},
    {"basis": "computational", "gates": [{"gate": "B_H"}, {"gate": "B_H", "qubit": 3}, {"gate": "B_S4"},
                                         {"gate": "B_S4", "qubit": 2}, [], {"gate": "B_H", "qubit": 3}]},
    {"basis": "computational", "gates": [{"gate": "B_S8", "qubit": 2}, {"gate": "B_H", "qubit": 3}, [],
                                         {"gate": "B_S4", "qubit": 2}, [], {"gate": "B_H", "qubit": 3}]},
    {"basis": "bell", "gates": [{"gate": "B_H", "qubit": 1}, {"gate": "B_CNOT12"},
                                {"gate": "OPAQUE", "matrix": _EYE}, {"gate": "B_S4", "qubit": 2},
                                {"gate": "B_S8", "qubit": 1, "phi": 0.1}, {"gate": "B_S4", "qubit": 1}]},
    {"basis": "computational", "gates": [{"gate": "S_phi_q2", "phi": 0.5}, {"gate": "B_H", "qubit": 1},
                                         {"gate": "B_CNOT12"}, {"gate": "B_CNOT12"}, {"gate": "S_phi_q2", "phi": 0.5},
                                         {"gate": "OPAQUE", "matrix": _EYE}]},
]
#: a drawn card is a base card (by index into _drawn_bases) and edits (key path, value), DROP removing the key
DROP = "drop"
DRAWN_CARDS = [
    (2, [], "1e-2", "json"),
    (4, [], "-5e-3", "json"),
    (1, [], "1e200", "json"),
    (3, [], ",", "csv"),
    (3, [(("phase_branch",), HUGE)], "nan", "csv"),
    (1, [(("m",), -2), (("targets", "m_prime"), 2)], "-5e-3", "json"),
    (1, [(("targets", "extra"), 1.7976931348623157e+308)], "-5e-3", "json"),
    (0, [(("targets", "m_prime"), 6)], "-5e-3", "csv"),
    (0, [(("h",), 0.0)], "1e200", "json"),
    (4, [(("targets", "j_targets"), HUGE)], "1e-2", "json"),
    (2, [(("residuals", 5), 2**1024)], "1e-2,5e-3", "json"),
    (2, [(("solved", "B1"), 2**1024)], "nan", "json"),
    (0, [(("targets", "b_targets"), -0.0)], "-5e-3", "json"),
    (2, [(("targets", "j_targets"), 1e+300)], "-5e-3", "csv"),
    (2, [(("m",), 3), (("targets", "m_prime"), 6)], "1e-2,5e-3", "csv"),
    (4, [(("solved", "B2"), "x")], "nan", "json"),
]


def _drawn_bases() -> list[dict]:
    # the base cards of the property test, as its documents hold them
    rows = [
        prescription_targets(GateId("H_q2")),
        prescription_targets(GateId("S_phi_q2", phi=0.5)),
        prescription_targets(GateId("S_phi_q1", phi=2.0), route="alternate"),
        prescription_targets(GateId("CNOT_12"), m=2, m_prime=1),
    ]
    docs = [solve_physical(tg).to_doc() for tg in rows]
    docs.append(cnot_family(GateId("CNOT_21"), m=2, field_scale=3.0).to_doc())
    return [json.loads(dumps(doc)) for doc in docs]


def _drawn_card(base: dict, edits) -> str:
    doc = json.loads(json.dumps(base))
    for (*path, key), value in edits:
        where = doc
        for k in path:
            where = where[k]
        if value == DROP:
            where.pop(key)
        else:
            where[key] = value
    return json.dumps(doc)


def _drawn_cases():
    for k, argv in enumerate(DRAWN_SYNTH):
        yield f"drawn/synth-{k}", ("synth", *argv), {}
    for k, (doc, argv) in enumerate(DRAWN_PARAMS):
        yield f"drawn/params-{k}", (argv[0], "params.json", *argv[1:]), {"params.json": json.dumps(doc)}
    for k, doc in enumerate(DRAWN_CIRCUITS):
        yield f"drawn/circuit-{k}", ("compile", "circuit.json"), {"circuit.json": json.dumps(doc)}
    bases = _drawn_bases()
    for k, (base, edits, steps, fmt) in enumerate(DRAWN_CARDS):
        yield f"drawn/card-{k}", ("fidelity-sweep", "card.json", "--states", "1", "--steps", steps, "--format", fmt), {
            "card.json": _drawn_card(bases[base], edits)}


def cases() -> list[dict]:
    """Every case: its id, argv and input files."""
    card = _stdout("synth", "H_q2")
    groups = (_readme_cases(card), _compile_cases(), _matrix_cases(), _synth_cases(), _usage_cases(),
              _sweep_cases(card), _winding_cases(), _shifted_sweep_cases(), _bench_cli_cases(card), _drawn_cases())
    out = [{"id": name, "argv": list(argv), "files": files} for group in groups for name, argv, files in group]
    assert len({c["id"] for c in out}) == len(out), "case ids must be unique"
    return out


def main() -> None:
    recorded = []
    for case in cases():
        with tempfile.TemporaryDirectory() as where:
            recorded.append({**case, **run(case["argv"], case["files"], where)})
    CONTRACT.write_text(json.dumps({"cases": recorded}, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(recorded)} cases to {CONTRACT.name}")


if __name__ == "__main__":
    main()
