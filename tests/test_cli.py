"""Command-line surface: schemas, determinism, and exit codes."""

import ast
import contextlib
import dataclasses
import io
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import bellgate
import bellgate.cli as cli
from bellgate import (
    BlockState,
    Circuit,
    GateId,
    Perturbation,
    PhysicalParams,
    PrescriptionCard,
    SolverFailure,
    bell_frame,
    evolve,
    fidelity_second_order,
    prescription_targets,
    solve_physical,
)
from bellgate.calib import SOLVABLE_TAGS
from bellgate.jsonio import dumps
from conftest import DEGENERATE, windings_give_rotations

PARAMS_TEXT = '{"t": 1.2, "J": [0.7, -0.4, 0.9], "B1": 0.3, "B2": -0.6, "h": 1}'
CIRCUIT_TEXT = (
    '{"basis": "computational", "gates": '
    '[{"gate": "B_H", "qubit": 1}, {"gate": "B_CNOT12"}, {"gate": "B_S8", "qubit": 2}]}'
)


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def params_file(tmp_path):
    f = tmp_path / "params.json"
    f.write_text(PARAMS_TEXT)
    return str(f)


@pytest.fixture
def circuit_file(tmp_path):
    f = tmp_path / "circuit.json"
    f.write_text(CIRCUIT_TEXT)
    return str(f)


@pytest.fixture
def card_file(tmp_path, capsys):
    f = tmp_path / "card.json"
    code = cli.main(["synth", "H_q2", "--out", str(f)])
    capsys.readouterr()
    assert code == 0
    return str(f)


def test_evolve_json_schema(capsys, params_file):
    code, out, err = run(capsys, "evolve", params_file)
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert set(doc) == {"params", "unitary", "unitarity_residual"}
    assert doc["params"]["h"] == 1
    assert doc["unitarity_residual"] < 1e-12
    u = np.array([[c["re"] + 1j * c["im"] for c in row] for row in doc["unitary"]])
    want = evolve(PhysicalParams.from_doc(json.loads(PARAMS_TEXT)))
    assert np.max(np.abs(u - want)) < 1e-15


def test_evolve_csv_matches_library(capsys, params_file):
    code, out, _ = run(capsys, "evolve", params_file, "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "row,col,re,im"
    assert len(lines) == 17
    want = evolve(PhysicalParams.from_doc(json.loads(PARAMS_TEXT)))
    for line in lines[1:]:
        r, c, re, im = line.split(",")
        assert complex(float(re), float(im)) == want[int(r), int(c)]


def test_evolve_identity_at_zero_time(capsys, tmp_path):
    f = tmp_path / "p.json"
    f.write_text('{"t": 0.0, "J": [0, 0, 0], "B1": 0, "B2": 0, "h": 2}')
    code, out, _ = run(capsys, "evolve", str(f))
    assert code == 0
    doc = json.loads(out)
    assert doc["unitary"][0][0] == {"re": 1.0, "im": 0.0}
    assert doc["unitary"][0][1] == {"re": 0.0, "im": 0.0}


def test_blocks_matched_frame(capsys, params_file):
    code, out, _ = run(capsys, "blocks", params_file)
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == {
        "frame",
        "block1",
        "block2",
        "offblock_norm",
        "within_structural_tol",
        "reduced",
        "cross",
    }
    assert doc["frame"]["h"] == 1
    assert doc["within_structural_tol"] is True
    assert doc["offblock_norm"] < 1e-10
    assert doc["cross"] is None
    for entry in doc["reduced"]:
        assert entry["closed_form_residual"] < 1e-9
        assert abs(entry["b"] ** 2 + entry["j"] ** 2 - 1.0) < 1e-12


def test_blocks_prints_no_negative_zero(capsys, tmp_path):
    f = tmp_path / "params.json"
    f.write_text('{"t": 1.2, "J": [0.0, -0.4, 0.9], "B1": 0.3, "B2": -0.6, "h": 1}')
    code, out, _ = run(capsys, "blocks", str(f))
    assert code == 0
    assert re.search(r"-0\.0(?![0-9])", out) is None


def test_blocks_cross_frame_weight(capsys, params_file):
    code, out, _ = run(capsys, "blocks", params_file, "--cross-h", "3")
    assert code == 0
    doc = json.loads(out)
    assert doc["cross"]["h"] == 3
    assert doc["cross"]["offblock_norm"] > 1e-3


def test_blocks_rejects_csv(capsys, params_file):
    code, out, err = run(capsys, "blocks", params_file, "--format", "csv")
    assert code == 2 and out == ""
    assert json.loads(err)["error"]["type"] == "usage"


def test_synth_card_round_trips_into_library(capsys):
    code, out, _ = run(capsys, "synth", "S_phi_q2", "--phi", "0.5")
    assert code == 0
    card = PrescriptionCard.from_doc(json.loads(out))
    want = solve_physical(prescription_targets(GateId("S_phi_q2", phi=0.5)))
    assert card == want


def test_synth_alternate_route(capsys):
    code, out, _ = run(capsys, "synth", "S_phi_q1", "--phi", "0.5", "--route", "alternate")
    assert code == 0
    card = PrescriptionCard.from_doc(json.loads(out))
    assert card.solved.h == 3
    assert card.solved.t == pytest.approx(0.5, abs=1e-12)


def test_synth_phi_validation(capsys):
    code, _, err = run(capsys, "synth", "S_phi_q1")
    assert code == 2
    assert json.loads(err)["error"]["type"] == "input"
    code, _, err = run(capsys, "synth", "H_q2", "--phi", "0.3")
    assert code == 2


def test_synth_family_csv_is_monotone(capsys):
    code, out, _ = run(
        capsys, "synth", "CNOT_12", "--family", "--m", "1..5", "--format", "csv"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "gate,h,m,m_prime,field_scale,t,b_abs,realized_error"
    assert len(lines) == 6
    errs = [float(line.split(",")[-1]) for line in lines[1:]]
    babs = [float(line.split(",")[-2]) for line in lines[1:]]
    assert all(hi > lo for hi, lo in zip(errs[:-1], errs[1:]))
    assert all(lo < hi for lo, hi in zip(babs[:-1], babs[1:]))


@pytest.mark.parametrize(
    "argv",
    [
        ("synth", "CNOT_12", "--m", "1000", "--m-prime", "3"),
        ("synth", "CNOT_12", "--family", "--m", "8..8", "--field-scale", "1e6", "--format", "csv"),
    ],
)
def test_realized_error_below_rounding_is_not_negative(capsys, argv):
    # both cards' gate errors lie below 1e-15, where 1 - |tr(a^dag b)| / n
    # printed -2.2e-16 and -6.7e-16
    code, out, _ = run(capsys, *argv)
    assert code == 0
    if "--family" in argv:
        value = float(out.strip().splitlines()[1].split(",")[-1])
    else:
        value = json.loads(out)["realized_error"]
    assert 0.0 <= value < 1e-15


def test_synth_family_json_schema(capsys):
    code, out, _ = run(capsys, "synth", "CNOT_21", "--family", "--m", "2..3")
    assert code == 0
    doc = json.loads(out)
    assert doc["field_scale"] == 1.0
    assert [entry["m"] for entry in doc["family"]] == [2, 3]
    for entry in doc["family"]:
        assert entry["gate"] == "CNOT_21"
        assert 0.0 < entry["b_abs"] <= 1.0


def test_synth_gate_choices_are_the_solvable_tags(capsys):
    # calib owns the list of gates with a published row; the CLI offers exactly those
    assert "SOLVABLE_TAGS" in bellgate.calib.__all__
    assert not hasattr(bellgate, "SOLVABLE_TAGS")
    tags = ("S_phi_q2", "S_phi_q1", "H_q2", "H_q1", "CNOT_12", "CNOT_21")
    assert bellgate.calib.SOLVABLE_TAGS == tags
    code, out, err = run(capsys, "synth", "B_H")
    assert (code, out) == (2, "")
    doc = json.loads(err)["error"]
    assert doc["type"] == "usage"
    head, offered = doc["message"].split("(choose from ")
    assert head.startswith("argument gate: invalid choice: ")
    assert re.findall(r"\w+", offered) == list(tags)


def test_synth_range_requires_family(capsys):
    code, _, err = run(capsys, "synth", "CNOT_12", "--m", "2..4")
    assert code == 2
    assert json.loads(err)["error"]["type"] == "input"


def test_synth_field_scale_requires_family(capsys):
    code, out, err = run(capsys, "synth", "H_q2", "--field-scale", "5")
    assert (code, out) == (2, "")
    message = "synth only takes --field-scale together with --family"
    assert json.loads(err) == {"error": {"type": "input", "message": message}}


@pytest.mark.parametrize("flag, value", [("--m-prime", "7"), ("--route", "alternate")])
def test_synth_family_refuses_single_card_options(capsys, flag, value):
    argv = ("synth", "CNOT_12", "--family", "--m", "1..2", flag, value, "--format", "csv")
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.count("\n") == 1
    message = f"synth --family takes no {flag}"
    assert json.loads(err) == {"error": {"type": "input", "message": message}}


def test_compile_document(capsys, circuit_file):
    code, out, _ = run(capsys, "compile", circuit_file)
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == {"compiled", "equivalence_residual"}
    assert doc["equivalence_residual"] < 1e-9
    compiled = Circuit.from_doc(doc["compiled"])
    assert compiled.basis == "bell"
    assert compiled.gates[0].tag == "T_translator"
    assert compiled.gates[-1].tag == "T_translator"


def test_compile_rejects_csv(capsys, circuit_file):
    code, _, err = run(capsys, "compile", circuit_file, "--format", "csv")
    assert code == 2
    assert json.loads(err)["error"]["type"] == "usage"


def test_fidelity_sweep_csv(capsys, card_file):
    code, out, _ = run(
        capsys,
        "fidelity-sweep",
        card_file,
        "--states",
        "2",
        "--steps",
        "1e-2,5e-3",
        "--format",
        "csv",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "gate,phi,m,state_id,param,dp,f2_exact,f2_second_order,cubic_residual"
    assert len(lines) == 1 + 2 * 6 * 2
    for line in lines[1:]:
        cells = line.split(",")
        assert cells[0] == "H_q2"
        assert 0.0 <= float(cells[6]) <= 1.0 + 1e-12


def test_fidelity_sweep_json(capsys, card_file):
    code, out, _ = run(capsys, "fidelity-sweep", card_file, "--states", "2", "--steps", "1e-2")
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == {"gate", "phi", "m", "reports", "ranking"}
    assert len(doc["reports"]) == 12
    names = [name for name, _ in doc["ranking"]]
    assert sorted(names) == ["B1", "B2", "J1", "J2", "J3", "t"]
    values = [v for _, v in doc["ranking"]]
    assert values == sorted(values, reverse=True)


def test_fidelity_sweep_ranking_ignores_states_and_seed(capsys, tmp_path):
    # the ranking is the exact mean over all states, so it is the same
    # text for any sample, the two ties of CNOT_12 (2, 1) included
    card = tmp_path / "card.json"
    assert cli.main(["synth", "CNOT_12", "--m", "2", "--m-prime", "1", "--out", str(card)]) == 0
    texts = set()
    for states in ("2", "64"):
        for seed in ("3", "7", "11"):
            code, out, _ = run(capsys, "fidelity-sweep", str(card), "--states", states, "--seed", seed)
            assert code == 0
            texts.add(out[out.index('"ranking"'):])
    assert len(texts) == 1
    doc = json.loads("{" + texts.pop())
    want = bellgate.rank_parameters(PrescriptionCard.from_doc(json.loads(card.read_text())))
    assert doc["ranking"] == [[name, val] for name, val in want]
    assert [name for name, _ in want] == ["B1", "B2", "J1", "t", "J2", "J3"]


def test_out_flag_writes_stdout_bytes(capsys, params_file, tmp_path):
    code, out, _ = run(capsys, "evolve", params_file)
    assert code == 0
    target = tmp_path / "u.json"
    code2, out2, _ = run(capsys, "evolve", params_file, "--out", str(target))
    assert code2 == 0 and out2 == ""
    assert target.read_text() == out


@pytest.mark.parametrize("where", ["missing-directory", "directory"])
def test_out_that_cannot_be_opened_is_input_error(capsys, params_file, tmp_path, where):
    # the file is opened inside the error mapping: one JSON error line, no traceback
    target = tmp_path / "absent" / "u.json" if where == "missing-directory" else tmp_path
    code, out, err = run(capsys, "evolve", params_file, "--out", str(target))
    assert (code, out) == (2, "")
    assert err.count("\n") == 1
    assert json.loads(err)["error"]["type"] == "input"
    assert str(target) in json.loads(err)["error"]["message"]


@pytest.mark.parametrize("command", ["evolve", "blocks", "compile", "fidelity-sweep"])
def test_input_nested_past_the_parsers_recursion_limit_is_input_error(capsys, tmp_path, command):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 5000 + "]" * 5000)
    code, out, err = run(capsys, command, str(deep))
    assert (code, out) == (2, "")
    assert json.loads(err)["error"] == {
        "type": "input", "message": f"{deep} nests its JSON values too deeply to parse"}


def test_byte_determinism_across_runs(capsys, params_file, circuit_file, card_file):
    invocations = [
        ("evolve", params_file),
        ("evolve", params_file, "--format", "csv"),
        ("blocks", params_file, "--cross-h", "2"),
        ("synth", "CNOT_12", "--family", "--m", "1..4", "--format", "csv"),
        ("synth", "H_q1"),
        ("compile", circuit_file),
        ("fidelity-sweep", card_file, "--states", "2", "--steps", "1e-2,5e-3"),
    ]
    for argv in invocations:
        code1, out1, _ = run(capsys, *argv)
        code2, out2, _ = run(capsys, *argv)
        assert code1 == code2 == 0
        assert out1 == out2
        assert out1.endswith("\n")


def test_missing_file_is_input_error(capsys):
    code, out, err = run(capsys, "blocks", "no-such-file.json")
    assert code == 2 and out == ""
    doc = json.loads(err)
    assert doc["error"]["type"] == "input"


def test_malformed_params_is_input_error(capsys, tmp_path):
    f = tmp_path / "bad.json"
    f.write_text('{"t": "soon"}')
    code, _, err = run(capsys, "evolve", str(f))
    assert code == 2
    assert json.loads(err)["error"]["type"] == "input"


def test_malformed_circuit_entry_is_input_error(capsys, tmp_path):
    f = tmp_path / "bad.json"
    f.write_text('{"basis": "computational", "gates": [{"qubit": 1}]}')
    code, out, err = run(capsys, "compile", str(f))
    assert code == 2 and out == ""
    assert json.loads(err)["error"]["type"] == "input"


@pytest.mark.parametrize(
    "argv",
    [("synth", "H_q2", "--tol-synthesis", "1e-3"), ("blocks", "x.json", "--tol-structural", "1")],
)
def test_tolerances_are_not_options(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert json.loads(err)["error"]["type"] == "usage"


def test_unknown_subcommand_is_usage_error(capsys):
    code, _, err = run(capsys, "transmogrify")
    assert code == 2
    assert json.loads(err)["error"]["type"] == "usage"


def test_solver_failure_maps_to_exit_3(capsys, monkeypatch):
    def boom(args):
        raise SolverFailure(0.5, "solver gave up")

    monkeypatch.setitem(cli._HANDLERS, "synth", boom)
    code, _, err = run(capsys, "synth", "H_q2")
    assert code == 3
    doc = json.loads(err)
    assert doc["error"]["type"] == "solver"
    assert "gave up" in doc["error"]["message"]


@pytest.mark.parametrize("error", [TypeError, KeyError])
def test_a_programming_error_is_not_reported_as_input(capsys, monkeypatch, error):
    # every malformed document and argv raises ValueError; a TypeError from the
    # writer or a KeyError from a table is a fault of the program and propagates
    def broken(args):
        raise error("a fault of the program")

    monkeypatch.setitem(cli._HANDLERS, "synth", broken)
    with pytest.raises(error, match="a fault of the program"):
        cli.main(["synth", "H_q2"])
    assert capsys.readouterr() == ("", "")


def test_solver_failure_message_names_the_closest_miss(capsys):
    # at a huge winding the one closed-form candidate misses by rounding;
    # the message says how long it lasts, by how much it misses, in which
    # residual, against which tolerance
    code, out, err = run(capsys, "synth", "CNOT_12", "--m", "100000000", "--m-prime", "3")
    assert (code, out) == (3, "")
    doc = json.loads(err)["error"]
    assert doc["type"] == "solver"
    assert re.fullmatch(
        r"no acceptable controls for CNOT_12: 1 candidates missed; the closest, at t = 3\.142e\+08, "
        r"has worst residual \d\.\d{3}e-08 \(delta_minus_2\) against ACCEPT_TOL 1e-08",
        doc["message"],
    ), doc["message"]


def test_overflowing_step_maps_to_exit_3(capsys, card_file):
    # the derivatives overflow for real; stderr must hold one JSON error
    # line and no numpy warnings
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "fidelity-sweep", card_file, "--states", "1", "--steps", "1e200")
    assert code == 3 and out == ""
    assert len(err.splitlines()) == 1
    doc = json.loads(err)
    assert doc["error"]["type"] == "numerical"
    assert "non-finite derivative" in doc["error"]["message"]


OVERFLOW_ERR = '{"error":{"type":"numerical","message":"matrix is not unitary: max |u^dag u - 1| = inf"}}\n'


@pytest.mark.parametrize(
    "argv",
    [("evolve",), ("evolve", "--format", "csv"), ("blocks",), ("blocks", "--cross-h", "2")],
)
def test_overflowing_evolution_maps_to_exit_3(capsys, tmp_path, argv):
    # t J1 overflows the eigenphase of the propagator; stderr must hold one
    # JSON error line and no numpy warnings
    f = tmp_path / "params.json"
    f.write_text('{"t": 1e308, "J": [3.0, 0.0, 0.0], "B1": 0.0, "B2": 0.0, "h": 1}')
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, argv[0], str(f), *argv[1:])
    assert (code, out, err) == (3, "", OVERFLOW_ERR)


def test_card_with_an_overflowing_evolution_maps_to_exit_3(capsys, tmp_path, card_file):
    # reading the card recomputes its realized error from the propagator
    doc = json.loads(Path(card_file).read_text())
    doc["solved"]["t"] = 1e308
    f = tmp_path / "card.json"
    f.write_text(json.dumps(doc))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "fidelity-sweep", str(f), "--states", "2")
    assert (code, out, err) == (3, "", OVERFLOW_ERR)


def test_family_card_with_an_overflowing_phase_maps_to_exit_3(capsys, tmp_path):
    # the card's reduced phases overflow before its propagator is built; the
    # same one JSON line as an overflowing evolution, not an input error
    out_file = tmp_path / "family.json"
    code = cli.main(
        ["synth", "CNOT_21", "--family", "--m", "8", "--field-scale", "10", "--out", str(out_file)]
    )
    capsys.readouterr()
    assert code == 0
    doc = json.loads(out_file.read_text())["family"][0]
    del doc["b_abs"]
    doc["solved"]["t"] = 1e308
    f = tmp_path / "card.json"
    f.write_text(json.dumps(doc))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "fidelity-sweep", str(f), "--states", "2")
    assert (code, out, err) == (3, "", OVERFLOW_ERR)


OVERFLOWING_SUM = '{"t": 1.0, "J": [1.7e308, 1.7e308, 0.0], "B1": 0.0, "B2": 0.0, "h": 1}'
NON_HERMITIAN_ERR = (
    '{"error":{"type":"numerical","message":"matrix is not Hermitian: max |m - m^dag| = nan"}}\n'
)


@pytest.mark.parametrize("argv", [("evolve",), ("evolve", "--format", "csv"), ("blocks",)])
def test_overflowing_hamiltonian_maps_to_exit_3(capsys, tmp_path, argv):
    # J1 + J2 overflows while the Hamiltonian is assembled
    f = tmp_path / "params.json"
    f.write_text(OVERFLOWING_SUM)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, argv[0], str(f), *argv[1:])
    assert (code, out, err) == (3, "", NON_HERMITIAN_ERR)


def test_overflowing_hamiltonian_writes_one_stderr_line(tmp_path):
    # a fresh process with numpy's default warning filters: no RuntimeWarning
    # goes to stderr before the JSON error line
    f = tmp_path / "params.json"
    f.write_text(OVERFLOWING_SUM)
    proc = subprocess.run(
        [sys.executable, "-c", _CLI_ENTRY, "evolve", str(f)],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=_SRC),
        timeout=300,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (3, "", NON_HERMITIAN_ERR)


@pytest.mark.parametrize(
    "command, text",
    [
        ("evolve", PARAMS_TEXT.replace('"h": 1', '"h": true')),
        ("blocks", PARAMS_TEXT.replace('"h": 1', '"h": 3.0')),
        ("compile", '{"basis": "computational", "gates": [{"gate": "B_H", "qubit": true}]}'),
        ("compile", '{"basis": "computational", "gates": [{"gate": "B_H", "qubit": 2.0}]}'),
    ],
    ids=["h-true", "h-float", "qubit-true", "qubit-float"],
)
def test_bool_and_float_axis_or_qubit_is_input_error(capsys, tmp_path, command, text):
    f = tmp_path / "doc.json"
    f.write_text(text)
    code, out, err = run(capsys, command, str(f))
    assert code == 2 and out == ""
    assert json.loads(err)["error"]["type"] == "input"


@pytest.mark.parametrize(
    "key, value",
    [("m", 2.5), ("m", True), ("m_prime", True), ("m_prime", 1.0), ("b_relation_sign", 2)],
    ids=["m-float", "m-true", "m_prime-true", "m_prime-float", "relation-2"],
)
def test_non_integer_card_field_is_input_error(capsys, tmp_path, card_file, key, value):
    doc = json.loads(Path(card_file).read_text())
    (doc if key == "m" else doc["targets"])[key] = value
    f = tmp_path / "bad_card.json"
    f.write_text(json.dumps(doc))
    code, out, err = run(capsys, "fidelity-sweep", str(f), "--states", "1", "--steps", "1e-2")
    assert code == 2 and out == ""
    assert json.loads(err)["error"]["type"] == "input"


@pytest.mark.parametrize(
    "text",
    [
        PARAMS_TEXT.replace('"t": 1.2', '"t": true'),
        PARAMS_TEXT.replace("-0.4", '"-0.4"'),
        PARAMS_TEXT.replace('"B1": 0.3', '"B1": false'),
        PARAMS_TEXT.replace('"B2": -0.6', '"B2": "-0.6"'),
    ],
    ids=["t-true", "J-string", "B1-false", "B2-string"],
)
def test_bool_or_string_parameter_is_input_error(capsys, tmp_path, text):
    f = tmp_path / "params.json"
    f.write_text(text)
    code, out, err = run(capsys, "evolve", str(f))
    assert code == 2 and out == ""
    assert json.loads(err)["error"]["type"] == "input"


@pytest.mark.parametrize(
    "field, value",
    [("phi", True), ("phi", False), ("t", True), ("B2", "0.0")],
    ids=["phi-true", "phi-false", "solved-t-true", "solved-B2-string"],
)
def test_bool_or_string_card_float_is_input_error(capsys, tmp_path, field, value):
    card = tmp_path / "card.json"
    assert cli.main(["synth", "S_phi_q2", "--phi", "1.0", "--out", str(card)]) == 0
    doc = json.loads(card.read_text())
    (doc if field == "phi" else doc["solved"])[field] = value
    card.write_text(json.dumps(doc))
    code, out, err = run(capsys, "fidelity-sweep", str(card), "--states", "1", "--steps", "1e-2")
    assert code == 2 and out == ""
    assert json.loads(err)["error"]["type"] == "input"


@pytest.mark.parametrize(
    "where, key, value",
    [
        ("targets", "delta_plus_1", True),
        ("targets", "b_abs_to_one", "false"),
        ("card", "phase_branch", 1.7),
        ("card", "realized_error", "1e-3"),
        ("targets", "j_targets", ["0", "x"]),
        ("card", "residuals", "00000"),
        ("targets", "delta_plus_1", None),
        ("targets", "delta_minus_1", None),
        ("targets", "delta_minus_2", None),
        ("targets", "b_abs_to_one", None),
    ],
    ids=["delta-true", "b_abs-string", "branch-float", "error-string", "j-strings", "residuals-string",
         "delta_plus_1-null", "delta_minus_1-null", "delta_minus_2-null", "b_abs-null"],
)
def test_mistyped_card_field_is_input_error(capsys, tmp_path, card_file, where, key, value):
    doc = json.loads(Path(card_file).read_text())
    (doc if where == "card" else doc[where])[key] = value
    f = tmp_path / "bad_card.json"
    f.write_text(json.dumps(doc))
    code, out, err = run(capsys, "fidelity-sweep", str(f), "--states", "1", "--steps", "1e-2")
    assert (code, out) == (2, "")
    assert json.loads(err)["error"]["type"] == "input"
    assert key in json.loads(err)["error"]["message"]


def _edited(tmp_path, text, edit):
    doc = json.loads(text)
    edit(doc)
    f = tmp_path / "edited.json"
    f.write_text(json.dumps(doc))
    return str(f)


def _assert_input_error(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert json.loads(err)["error"]["type"] == "input"
    return json.loads(err)["error"]["message"]


def test_unknown_parameter_key_is_input_error(capsys, tmp_path):
    f = _edited(tmp_path, PARAMS_TEXT, lambda d: d.update(B3=9.0))
    assert "unknown key 'B3'" in _assert_input_error(capsys, "evolve", f)


@pytest.mark.parametrize(
    "edit",
    [lambda d: d["gates"][1].update(qbit=1), lambda d: d.update(extra=True)],
    ids=["entry-key", "top-level-key"],
)
def test_unknown_circuit_key_is_input_error(capsys, tmp_path, edit):
    f = _edited(tmp_path, CIRCUIT_TEXT, edit)
    assert "unknown key" in _assert_input_error(capsys, "compile", f)


@pytest.mark.parametrize(
    "edit",
    [lambda d: d.update(phase_brnach=1), lambda d: d["targets"].update(delta_plus_2=0.0)],
    ids=["top-level-key", "targets-key"],
)
def test_unknown_card_key_is_input_error(capsys, tmp_path, card_file, edit):
    f = _edited(tmp_path, Path(card_file).read_text(), edit)
    message = _assert_input_error(capsys, "fidelity-sweep", f, "--states", "1", "--steps", "1e-2")
    assert "malformed card document: unknown key" in message


@pytest.mark.parametrize(
    "edit",
    [
        lambda d: d.update(realized_error=0.5),
        lambda d: d["residuals"].__setitem__(1, 9.0),
        lambda d: d.update(phase_branch=-d["phase_branch"]),
        lambda d: d["residuals"].pop(),
        lambda d: d.update(realized_error=0.5, residuals=[9.0]),
    ],
    ids=["realized_error", "residual", "phase_branch", "dropped-residual", "both"],
)
def test_edited_honesty_numbers_are_input_error(capsys, tmp_path, card_file, edit):
    f = _edited(tmp_path, Path(card_file).read_text(), edit)
    message = _assert_input_error(capsys, "fidelity-sweep", f, "--states", "1", "--steps", "1e-2")
    assert "recomputation" in message


@pytest.mark.parametrize(
    "argv",
    [
        ("synth", "H_q2", "--seed", "3"),
        ("evolve", "x.json", "--seed", "3"),
        ("blocks", "x.json", "--seed", "3"),
        ("compile", "x.json", "--seed", "3"),
    ],
    ids=["synth", "evolve", "blocks", "compile"],
)
def test_seed_is_only_a_fidelity_sweep_option(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert json.loads(err)["error"]["type"] == "usage"


def test_huge_finite_step_is_not_an_input_error(capsys, card_file):
    # 7e153 squared is finite, so only the expansion's value can overflow;
    # the sweep either reports finite numbers or fails as numerical
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "fidelity-sweep", card_file, "--steps", "7e153")
    assert code in (0, 3)
    assert len(err.splitlines()) <= 1
    if code == 3:
        assert json.loads(err)["error"]["type"] == "numerical"
    else:
        assert json.loads(out)["reports"]


@pytest.mark.parametrize(
    "steps, message",
    [
        ("-5", "t must be nonnegative"),
        ("nan", "perturbation component must be a finite real number, got nan"),
        (",", "sensitivity sweep needs a nonempty step grid"),
    ],
)
def test_bad_step_maps_to_exit_2(capsys, card_file, steps, message):
    code, out, err = run(capsys, "fidelity-sweep", card_file, "--states", "1", "--steps", steps)
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1
    doc = json.loads(err)
    assert doc["error"] == {"type": "input", "message": message}


def test_more_states_than_memory_maps_to_exit_2(capsys, card_file):
    # numpy refuses the (1e14, 8) state draw before it allocates anything;
    # its MemoryError is an input error, not a traceback with exit 1
    message = _assert_input_error(capsys, "fidelity-sweep", card_file, "--states", "100000000000000")
    assert message.startswith("Unable to allocate 5.68 PiB for an array with shape (100000000000000, 8)")


@pytest.mark.parametrize("steps", ["-5e-3", "-1e-2,5e-3", "-0.005,-1E-2"])
def test_negative_grid_after_a_space_is_the_grid(capsys, card_file, steps):
    # argparse alone reads "-5e-3" as an option and reports a missing argument
    attached = run(capsys, "fidelity-sweep", card_file, "--states", "1", f"--steps={steps}")
    assert attached[0] == 0 and attached[1]
    assert run(capsys, "fidelity-sweep", card_file, "--states", "1", "--steps", steps) == attached


_MISSING_STEPS = '{"error":{"type":"usage","message":"argument --steps: expected one argument"}}\n'


@pytest.mark.parametrize(
    "argv, code, err",
    [
        (
            ("--steps", "1e200"),
            3,
            '{"error":{"type":"numerical","message":"non-finite derivative input at parameter index 0"}}\n',
        ),
        (
            ("--steps=-5,nan",),
            2,
            '{"error":{"type":"input","message":'
            '"perturbation component must be a finite real number, got nan"}}\n',
        ),
        (("--steps",), 2, _MISSING_STEPS),
        (("--steps", "--seed", "3"), 2, _MISSING_STEPS),
        (("--steps", "-x"), 2, _MISSING_STEPS),
    ],
    ids=["overflow", "attached-nan", "no-value", "option-next", "not-a-grid"],
)
def test_step_errors_keep_their_lines(capsys, card_file, argv, code, err):
    assert run(capsys, "fidelity-sweep", card_file, "--states", "1", *argv) == (code, "", err)


@pytest.mark.parametrize(
    "argv",
    [
        ("S_phi_q2", "--phi", "-5e-3"),
        ("S_phi_q2", "--phi", "-1E2"),
        ("S_phi_q1", "--route", "alternate", "--phi", "-2.5e+1"),
        ("CNOT_12", "--family", "--m", "1..2", "--field-scale", "-1e3"),
        ("CNOT_12", "--family", "--m", "1..2", "--field-scale", "-inf"),
        ("S_phi_q2", "--phi", "-inf"),
    ],
    ids=["phi", "phi-capital-e", "phi-alternate", "field-scale", "field-scale-inf", "phi-inf"],
)
def test_negative_real_after_a_space_is_the_value(capsys, argv):
    # argparse alone reads "-5e-3" as an option and reports a missing argument
    *head, option, value = argv
    attached = run(capsys, "synth", *head, f"{option}={value}")
    assert run(capsys, "synth", *head, option, value) == attached
    assert attached[0] == 0 or json.loads(attached[2])["error"]["type"] == "input"


_MISSING_PHI = '{"error":{"type":"usage","message":"argument --phi: expected one argument"}}\n'


@pytest.mark.parametrize(
    "argv, err",
    [
        (("synth", "S_phi_q2", "--phi"), _MISSING_PHI),
        (("synth", "S_phi_q2", "--phi", "-x"), _MISSING_PHI),
        (("synth", "S_phi_q2", "--phi", "--m", "2"), _MISSING_PHI),
        (
            ("synth", "S_phi_q2", "--phi", "abc"),
            '{"error":{"type":"usage","message":"argument --phi: invalid float value: \'abc\'"}}\n',
        ),
        (
            ("synth", "CNOT_12", "--family", "--field-scale", "-e3"),
            '{"error":{"type":"usage","message":"argument --field-scale: expected one argument"}}\n',
        ),
        (
            ("synth", "H_q2", "--steps", "-1e-2"),
            '{"error":{"type":"usage","message":"unrecognized arguments: --steps -1e-2"}}\n',
        ),
        (
            ("compile", "circuit.json", "--phi", "-5e-3"),
            '{"error":{"type":"usage","message":"unrecognized arguments: --phi -5e-3"}}\n',
        ),
        (
            ("fidelity-sweep", "card.json", "--field-scale", "-1e3"),
            '{"error":{"type":"usage","message":"unrecognized arguments: --field-scale -1e3"}}\n',
        ),
    ],
    ids=["no-value", "not-a-number", "option-next", "invalid", "field-scale-not-a-number",
         "steps-on-synth", "phi-on-compile", "field-scale-on-fidelity-sweep"],
)
def test_real_option_errors_keep_their_lines(capsys, argv, err):
    # only the subcommand that has the option attaches its value, and only a value it reads
    assert run(capsys, *argv) == (2, "", err)


@pytest.mark.parametrize("command", ["evolve", "blocks", "compile"])
def test_steps_stays_an_unknown_option_elsewhere(capsys, params_file, command):
    # only fidelity-sweep reads a grid, so only there is "--steps -1" attached
    code, out, err = run(capsys, command, params_file, "--steps", "-1")
    assert (code, out) == (2, "")
    assert json.loads(err) == {"error": {"type": "usage", "message": "unrecognized arguments: --steps -1"}}


def test_fidelity_sweep_writes_columns_without_report_objects(capsys, monkeypatch, card_file):
    def refuse(*args, **kwargs):
        raise AssertionError("fidelity-sweep built a FidelityReport")

    monkeypatch.setattr(bellgate.fidelity, "FidelityReport", refuse)
    for fmt in ("json", "csv"):
        code, out, err = run(capsys, "fidelity-sweep", card_file, "--states", "3", "--format", fmt)
        assert (code, err) == (0, "") and out


# Import boundary: the package runs on numpy alone, so no command, not even
# the state sampler of fidelity-sweep, loads a scipy module, and each command
# loads only the package layers it runs.  Each cold check starts a fresh
# interpreter on the src tree the tests import, runs BODY (which sets `code`),
# and reports the scipy and bellgate modules it ended up with on stderr's
# last line.
_SRC = str(Path(bellgate.__file__).resolve().parents[1])
_COLD = """
import json, sys
{body}
sys.stdout.flush()
loaded = [sorted(m for m in sys.modules if m == top or m.startswith(top + ".")) for top in ("scipy", "bellgate")]
print(json.dumps(loaded), file=sys.stderr)
sys.exit(code)
"""
_CLI_BODY = "from bellgate.cli import main\ncode = main(sys.argv[1:])"

#: what every command loads before its handler runs: the package namespace, the
#: command line, and the three modules its parser and error lines need
_SHELL = ["bellgate", "bellgate.checks", "bellgate.cli", "bellgate.errors", "bellgate.jsonio"]
#: the layers each command loads on top of the shell
_LAYERS = {
    "evolve": ["model", "spinlin"],
    "blocks": ["bellframe", "model", "spinlin"],
    "compile": ["gates", "spinlin"],
    "synth": ["bellframe", "calib", "gates", "model", "spinlin"],
    "fidelity-sweep": ["bellframe", "calib", "fidelity", "gates", "model", "spinlin"],
}
_ALL_MODULES = _SHELL + [f"bellgate.{layer}" for layer in _LAYERS["fidelity-sweep"]]


def _cold(body, *args):
    """Exit code, stdout, stderr lines before the report, and the scipy and bellgate modules loaded."""
    proc = subprocess.run(
        [sys.executable, "-c", _COLD.format(body=body), *args],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=_SRC),
        timeout=300,
    )
    *err, mods = proc.stderr.splitlines()
    scipy_mods, bellgate_mods = json.loads(mods)
    return proc.returncode, proc.stdout, err, scipy_mods, bellgate_mods


def test_import_loads_no_scipy():
    body = "import bellgate, bellgate.cli\ncode = 0 if bellgate.__file__.startswith(sys.argv[1]) else 1"
    assert _cold(body, _SRC) == (0, "", [], [], _SHELL)


def test_bare_import_loads_no_layer_and_no_numpy():
    body = "import bellgate\nprint('numpy' in sys.modules)\ncode = 0"
    assert _cold(body) == (0, "False\n", [], [], ["bellgate"])


def test_usage_error_loads_only_the_shell(capsys):
    # the synth parser offers its gate choices before any layer is loaded
    code, out, err = run(capsys, "synth", "B_H")
    assert (code, out) == (2, "")
    assert _cold(_CLI_BODY, "synth", "B_H") == (2, "", err.splitlines(), [], _SHELL)


@pytest.mark.parametrize(
    "argv",
    [
        ("evolve", "{params}"),
        ("blocks", "{params}"),
        ("compile", "{circuit}"),
        ("synth", "H_q2"),
        pytest.param(("fidelity-sweep", "{card}", "--states", "2"), id="fidelity-sweep-json"),
        pytest.param(
            ("fidelity-sweep", "{card}", "--states", "2", "--format", "csv"), id="fidelity-sweep-csv"
        ),
    ],
    ids=lambda argv: argv[0],
)
def test_numpy_only_commands_load_no_scipy(capsys, params_file, circuit_file, card_file, argv):
    # and no layer but its own: a cold evolve or compile never compiles the solver
    argv = [a.format(params=params_file, circuit=circuit_file, card=card_file) for a in argv]
    code, want, _ = run(capsys, *argv)
    assert code == 0
    loaded = sorted(_SHELL + [f"bellgate.{layer}" for layer in _LAYERS[argv[0]]])
    assert _cold(_CLI_BODY, *argv) == (0, want, [], [], loaded)


def _imported_modules(path):
    """Top-level names of the absolute imports anywhere in a module, function bodies included."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


_PACKAGE = Path(bellgate.__file__).resolve().parent


def test_src_imports_no_scipy():
    hits = [path.name for path in sorted(_PACKAGE.glob("*.py")) if "scipy" in _imported_modules(path)]
    assert hits == []


def test_calib_imports_no_4x4_path():
    # realized_error is read off the two block maps; the 4x4 propagator and
    # its distance stay test oracles and must not come back into synthesis
    tree = ast.parse((_PACKAGE / "calib.py").read_text())
    names = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) for alias in node.names}
    names |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    assert names & {"evolve", "dist_phase_invariant"} == set()
    # the reduced parameters come from the one block-kernel run of each candidate
    assert "reduced_params" not in names


def _called(node):
    """The names called anywhere under an AST node."""
    return {
        call.func.id if isinstance(call.func, ast.Name) else call.func.attr
        for call in ast.walk(node)
        if isinstance(call, ast.Call) and isinstance(call.func, (ast.Name, ast.Attribute))
    }


def _calls_by_function(tree):
    """The names each function of a module calls, by the function's qualified name."""
    out = {}

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                name = f"{prefix}{child.name}"
                if isinstance(child, ast.FunctionDef):
                    out[name] = _called(child)
                visit(child, f"{name}.")

    visit(tree, "")
    return out


def test_calib_checks_a_target_set_in_one_place():
    # a target set is valid by construction: the windings rule and the weight
    # check live in PrescriptionTargets, so neither the card reader nor the
    # solver keeps a copy or builds a second target set to compare with
    tree = ast.parse((_PACKAGE / "calib.py").read_text())
    calls = _calls_by_function(tree)
    callers = {helper: sorted(name for name, called in calls.items() if helper in called)
               for helper in ("_check_feasible", "_cnot_rotations")}
    assert callers == {
        "_check_feasible": ["PrescriptionTargets.__post_init__"],
        "_cnot_rotations": ["PrescriptionTargets.__post_init__", "_published_row"],
    }
    for name in ("PrescriptionCard.from_doc", "solve_physical"):
        assert calls[name] & {"_check_feasible", "_cnot_rotations", "prescription_targets"} == set()
    # and no path is left for a target set that could not build: no refusal is
    # caught, and only the import-time table reads a gate's blocks off its matrix,
    # through bellframe's one projection
    assert not any(isinstance(node, ast.Try) for node in ast.walk(tree))
    assert [name for name, called in calls.items() if "_block_coordinates" in called] == []
    called = _called(tree)
    assert "_block_coordinates" in called and "einsum" not in called
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert "BLOCK_BASIS" not in imported


def test_runtime_dependencies_are_numpy_alone():
    tomllib = pytest.importorskip("tomllib")
    pyproject = _PACKAGE.parents[1] / "pyproject.toml"
    deps = tomllib.loads(pyproject.read_text())["project"]["dependencies"]
    names = {re.match(r"[A-Za-z0-9_.-]+", dep).group(0).lower() for dep in deps}
    assert names == {"numpy"}
    third_party = {
        name
        for path in _PACKAGE.glob("*.py")
        for name in _imported_modules(path)
        if name not in sys.stdlib_module_names
    }
    assert third_party <= names


def test_fidelity_expansion_loads_no_scipy():
    body = (
        "from bellgate import BlockState, Perturbation, PhysicalParams, bell_frame\n"
        "from bellgate import directional_derivatives, fidelity_second_order\n"
        "p = PhysicalParams(t=1.2, J=(0.7, -0.4, 0.9), B1=0.3, B2=-0.6, h=1)\n"
        "state = BlockState.normalized([0.6, 0.5j, 0.4, -0.3], bell_frame(1))\n"
        "dp = Perturbation(dp=(1e-2, 0.0, 2e-2, 0.0, 0.0, -1e-2))\n"
        "directional_derivatives(p, dp, bell_frame(1))\n"
        "print(repr(fidelity_second_order(state, p, dp)))\n"
        "code = 0"
    )
    p = PhysicalParams(t=1.2, J=(0.7, -0.4, 0.9), B1=0.3, B2=-0.6, h=1)
    state = BlockState.normalized([0.6, 0.5j, 0.4, -0.3], bell_frame(1))
    dp = Perturbation(dp=(1e-2, 0.0, 2e-2, 0.0, 0.0, -1e-2))
    want = repr(fidelity_second_order(state, p, dp)) + "\n"
    assert _cold(body) == (0, want, [], [], sorted(set(_ALL_MODULES) - {"bellgate.cli"}))


def test_shifted_solve_loads_no_scipy():
    # the shifted-drift row of test_solver_reaches_shifted_drift_branch:
    # the closed form misses it, so the inversion must run, on numpy alone
    tg = dataclasses.replace(prescription_targets(GateId("S_phi_q2", phi=0.5)), delta_plus_1=math.pi)
    body = (
        "import dataclasses, math\n"
        "from bellgate import GateId, prescription_targets, solve_physical\n"
        "from bellgate.jsonio import dumps\n"
        "tg = dataclasses.replace(prescription_targets(GateId('S_phi_q2', phi=0.5)), delta_plus_1=math.pi)\n"
        "print(dumps(solve_physical(tg).to_doc(), indent=2))\n"
        "code = 0"
    )
    want = dumps(solve_physical(tg).to_doc(), indent=2) + "\n"
    assert _cold(body) == (0, want, [], [], sorted(set(_ALL_MODULES) - {"bellgate.cli", "bellgate.fidelity"}))


_DATA = Path(__file__).resolve().parent / "data"
_CLI_ENTRY = "import sys; from bellgate.cli import main; sys.exit(main())"


_README = Path(__file__).resolve().parents[1] / "README.md"


def _readme_output(lines, command):
    """The lines the README shows under "$ command", up to the next prompt or the end of its block."""
    start = lines.index("$ " + command) + 1
    end = next(k for k in range(start, len(lines)) if lines[k].startswith(("$ ", "```")) or not lines[k])
    return lines[start:end]


@pytest.mark.parametrize(
    "command",
    [
        "bellgate evolve params.json --format csv | head -3",
        "bellgate synth CNOT_12 --family --m 1..4 --format csv",
        "bellgate fidelity-sweep card.json --states 2 --steps 1e-2,5e-3 --format csv | head -3",
    ],
    ids=["evolve", "synth-family", "fidelity-sweep"],
)
def test_readme_csv_examples_match_the_program(capsys, tmp_path, monkeypatch, command):
    # each example runs in a directory holding the README's params.json
    # and the card of its "bellgate synth H_q2 --out card.json"
    lines = _README.read_text(encoding="utf-8").splitlines()
    monkeypatch.chdir(tmp_path)
    (tmp_path / "params.json").write_text(_readme_output(lines, "cat params.json")[0])
    assert _readme_output(lines, "bellgate synth H_q2 --out card.json") == []
    assert cli.main(["synth", "H_q2", "--out", "card.json"]) == 0
    argv, _, head = command.partition(" | head -")
    code, out, err = run(capsys, *argv.split()[1:])
    assert (code, err) == (0, "")
    got = out.splitlines()[: int(head)] if head else out.splitlines()
    assert got == _readme_output(lines, command)


def test_compile_stdout_matches_golden_fixture():
    # the fixture is the output of the compiler that built every
    # embedding with a kron and matched every conjugate per call; the
    # circuit holds each of the eight computational (tag, qubit) entries
    circuit = _DATA / "compile_all_gates.json"
    doc = json.loads(circuit.read_text())
    keys = {(g["gate"], g.get("qubit")) for g in doc["gates"]}
    assert len(keys) == 8
    proc = subprocess.run(
        [sys.executable, "-c", _CLI_ENTRY, "compile", str(circuit)],
        capture_output=True,
        env=dict(os.environ, PYTHONPATH=_SRC),
        timeout=300,
    )
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert proc.stdout == (_DATA / "compile_all_gates.stdout").read_bytes()


# Block coordinates from the one kernel: tiny and huge couplings reduce as
# evolve builds them, and an overflowing card warns nothing.


@pytest.mark.parametrize(
    "text",
    [
        '{"t": 1e14, "J": [0.0, 1e-14, 0.0], "B1": 0.0, "B2": 0.0, "h": 1}',
        '{"t": 1e-200, "J": [0.0, 1e200, 0.0], "B1": 0.0, "B2": 0.0, "h": 1}',
    ],
    ids=["small-couplings", "large-couplings"],
)
def test_blocks_reduces_any_scale_evolve_builds(capsys, tmp_path, text):
    # H t is the same one-radian rotation on both blocks; a block is
    # degenerate only where |c| = 0, and |c| does not overflow
    f = tmp_path / "params.json"
    f.write_text(text)
    assert run(capsys, "evolve", str(f))[0] == 0
    code, out, err = run(capsys, "blocks", str(f))
    assert (code, err) == (0, "")
    for entry in json.loads(out)["reduced"]:
        assert entry["delta_minus"] == 1.0
        assert entry["closed_form_residual"] < 1e-12


def test_family_at_a_huge_field_scale_is_a_card(capsys):
    code, out, err = run(capsys, "synth", "CNOT_12", "--family", "--m", "1..2", "--field-scale", "1e200")
    assert (code, err) == (0, "")
    assert [card["b_abs"] for card in json.loads(out)["family"]] == [1.0, 1.0]


@pytest.mark.parametrize("scale", ["5e-324", "1e308"], ids=["duration-overflows", "field-overflows"])
def test_family_field_scale_out_of_the_float_range_is_named(capsys, scale):
    # 1 / 5e-324 and 2 pi 1e308 overflow; the error names the option given, not t or B1
    message = _assert_input_error(capsys, "synth", "CNOT_12", "--family", "--m", "1..2", "--field-scale", scale)
    assert message.startswith("field_scale must keep the duration 1 / field_scale and the field ")
    assert message.endswith(f", got {float(scale)!r} at m = 1")


@pytest.mark.parametrize(
    "argv",
    [
        ("S_phi_q2", "--phi", "1e12"),
        ("S_phi_q2", "--phi", "1e13"),
        ("S_phi_q2", "--phi", "1e15"),
        ("S_phi_q2", "--phi", "1e300"),
        ("S_phi_q2", "--phi=-1e13"),
        ("S_phi_q1", "--phi", "1e13"),
        ("S_phi_q1", "--phi", "1e15"),
        ("S_phi_q1", "--phi", "1e300"),
        ("S_phi_q1", "--phi=-1e13"),
        ("S_phi_q1", "--route", "alternate", "--phi", "1e13"),
        ("S_phi_q1", "--route", "alternate", "--phi", "1e15"),
        ("S_phi_q1", "--route", "alternate", "--phi=-1e13"),
    ],
)
def test_huge_phase_is_folded_as_the_gate_folds_it(capsys, argv):
    # the gate's exp(-+i phi) reduces phi by the exact 2 pi; a fold by the
    # rounded 2 pi missed by 7.6e-8 at 1e13 and 7.6e-4 at 1e15
    code, out, err = run(capsys, "synth", *argv)
    assert (code, err) == (0, "")
    card = PrescriptionCard.from_doc(json.loads(out))
    frame = bell_frame(card.targets.h)
    u = frame.adjoint @ evolve(card.solved) @ frame.change_of_basis
    o = bellgate.frame_permutation(frame)
    want = bellgate.d_gate(card.targets.gate)[np.ix_(o, o)]
    assert bellgate.dist_phase_invariant(u, want) <= bellgate.ACCEPT_TOL


def test_card_with_overflowing_block_coefficients_writes_one_stderr_line(tmp_path, card_file):
    # J3 - J2 overflows in the block coefficients while the card is read; a
    # fresh process with numpy's default warning filters shows no RuntimeWarning
    doc = json.loads(Path(card_file).read_text())
    doc["solved"]["J"] = [0.0, 1.7e308, -1.7e308]
    f = tmp_path / "card.json"
    f.write_text(json.dumps(doc))
    proc = subprocess.run(
        [sys.executable, "-c", _CLI_ENTRY, "fidelity-sweep", str(f), "--states", "2"],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=_SRC),
        timeout=300,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (3, "", OVERFLOW_ERR)


HUGE = 10**400


def _opaque_circuit(entry):
    rows = [[{"re": int(r == c), "im": 0} for c in range(4)] for r in range(4)]
    rows[0][0]["re"] = entry
    return json.dumps({"basis": "computational", "gates": [{"gate": "OPAQUE", "matrix": rows}]})


@pytest.mark.parametrize(
    "command, text, name",
    [
        ("evolve", PARAMS_TEXT.replace('"t": 1.2', f'"t": {HUGE}'), "t must be"),
        ("blocks", PARAMS_TEXT.replace("-0.4", str(HUGE)), "J must be"),
        ("compile", _opaque_circuit(HUGE), "matrix entry must be"),
    ],
    ids=["evolve-t", "blocks-J", "compile-opaque"],
)
def test_integer_past_the_float_range_in_a_document_is_input_error(capsys, tmp_path, command, text, name):
    f = tmp_path / "doc.json"
    f.write_text(text)
    assert name in _assert_input_error(capsys, command, str(f))


@pytest.mark.parametrize(
    "edit, name",
    [
        (lambda d: d["solved"].update(t=HUGE), "t must be"),
        (lambda d: d.update(residuals=[HUGE] + d["residuals"][1:]), "residuals must be"),
    ],
    ids=["solved-t", "residuals"],
)
def test_integer_past_the_float_range_in_a_card_is_input_error(capsys, tmp_path, card_file, edit, name):
    f = _edited(tmp_path, Path(card_file).read_text(), edit)
    assert name in _assert_input_error(capsys, "fidelity-sweep", f, "--states", "1")


@pytest.mark.parametrize(
    "argv",
    [
        ("--m", str(HUGE)),
        ("--m-prime", str(HUGE)),
        ("--family", "--m", str(HUGE)),
        ("--family", "--m", f"1..{HUGE}"),
    ],
    ids=["m", "m-prime", "family-m", "family-m-range"],
)
def test_winding_past_the_float_range_is_input_error(capsys, argv):
    # a family range is bounded at its far end before any of its cards is solved
    assert "m + m_prime" in _assert_input_error(capsys, "synth", "CNOT_12", *argv)


def test_cnot_card_with_edited_windings_is_input_error(capsys, tmp_path):
    # the windings must give the card's rotations; m 7 would be echoed in every sweep row
    card = tmp_path / "card.json"
    assert cli.main(["synth", "CNOT_12", "--m", "2", "--m-prime", "1", "--out", str(card)]) == 0
    f = _edited(tmp_path, card.read_text(), lambda d: d.update(m=7))
    assert "must give the card's delta_minus" in _assert_input_error(capsys, "fidelity-sweep", f)


@pytest.mark.parametrize(
    "m, m_prime, message",
    [
        (None, None, "a CNOT card carries its windings m and m_prime, got null for both"),
        (7, None, "m_prime must be an integer, got None"),
        (None, 1, "m must be an integer, got None"),
    ],
)
def test_cnot_card_without_windings_is_input_error(capsys, tmp_path, m, m_prime, message):
    # every CNOT card carries both windings; with both null the sweep printed m null in every row
    card = tmp_path / "card.json"
    assert cli.main(["synth", "CNOT_12", "--m", "2", "--m-prime", "1", "--out", str(card)]) == 0

    def edit(doc):
        doc["m"] = m
        doc["targets"]["m_prime"] = m_prime

    f = _edited(tmp_path, card.read_text(), edit)
    assert _assert_input_error(capsys, "fidelity-sweep", f, "--states", "1") == message


@pytest.mark.parametrize("m, m_prime", [(3, None), (None, 5), (3, 5)])
def test_non_cnot_card_with_windings_is_input_error(capsys, tmp_path, card_file, m, m_prime):
    # only CNOT rows wind; an H_q2 card carrying m would echo it in every sweep row
    def edit(doc):
        doc["m"] = m
        doc["targets"]["m_prime"] = m_prime

    f = _edited(tmp_path, Path(card_file).read_text(), edit)
    assert "windings" in _assert_input_error(capsys, "fidelity-sweep", f, "--states", "1")


@pytest.mark.parametrize(
    "argv, full",
    [
        (("synth", "S_phi_q2", "--ph", "-5e-3"), ("synth", "S_phi_q2", "--phi=-5e-3")),
        (("synth", "S_phi_q2", "--p", "-1E2"), ("synth", "S_phi_q2", "--phi=-1E2")),
        (("synth", "CNOT_12", "--family", "--m", "1..2", "--fi", "-1e3"),
         ("synth", "CNOT_12", "--family", "--m", "1..2", "--field-scale=-1e3")),
        (("fidelity-sweep", "CARD", "--states", "1", "--ste", "-5e-3"),
         ("fidelity-sweep", "CARD", "--states", "1", "--steps=-5e-3")),
    ],
    ids=["phi", "phi-one-letter", "field-scale", "steps"],
)
def test_option_prefix_takes_a_negative_value(capsys, card_file, argv, full):
    # argparse takes an unambiguous prefix of an option, and so does the value attachment
    argv, full = ([card_file if a == "CARD" else a for a in v] for v in (argv, full))
    attached = run(capsys, *full)
    assert attached[0] in (0, 2) and (attached[1] or attached[2])
    assert run(capsys, *argv) == attached


@pytest.mark.parametrize(
    "argv, matches",
    [
        (("synth", "S_phi_q2", "--f", "-5e-3"), "--f could match --family, --field-scale, --format"),
        (("fidelity-sweep", "CARD", "--st", "-5e-3"), "--st could match --states, --steps"),
    ],
)
def test_ambiguous_option_prefix_keeps_the_argparse_error(capsys, card_file, argv, matches):
    argv = [card_file if a == "CARD" else a for a in argv]
    err = '{"error":{"type":"usage","message":"ambiguous option: %s"}}\n' % matches
    assert run(capsys, *argv) == (2, "", err)


@pytest.mark.parametrize(
    "argv, flag",
    [
        (("H_q2", "--m", "3"), "--m"),
        (("S_phi_q2", "--phi", "1", "--m", "5", "--m-prime", "2"), "--m"),
        (("H_q1", "--m-prime", "2"), "--m-prime"),
        (("S_phi_q1", "--phi", "1", "--route", "alternate", "--m", "1"), "--m"),
    ],
)
def test_synth_windings_need_a_cnot(capsys, argv, flag):
    # only a CNOT row winds; the other rows used to ignore --m and print "m": null
    message = _assert_input_error(capsys, "synth", *argv)
    assert message == f"synth {argv[0]} takes no {flag}: only a CNOT has windings"


@pytest.mark.parametrize(
    "argv, message",
    [
        (("--m", "abc"), "--m takes an integer, got 'abc'"),
        (("--m", "1.5"), "--m takes an integer, got '1.5'"),
        (("--m", "2..4"), "synth only takes an --m range a..b together with --family"),
        (("--family", "--m", "1..x"), "--m takes an integer or a range a..b, got '1..x'"),
    ],
)
def test_synth_unreadable_winding_names_the_option(capsys, argv, message):
    assert _assert_input_error(capsys, "synth", "CNOT_12", *argv) == message


@pytest.mark.parametrize("tag", [tag for tag in SOLVABLE_TAGS if not tag.startswith("CNOT")])
def test_synth_family_of_a_gate_without_one_names_the_option(capsys, tag):
    # the message used to name the library call, cnot_family, instead of the option
    phi = ("--phi", "1") if tag.startswith("S_phi") else ()
    message = _assert_input_error(capsys, "synth", tag, *phi, "--family")
    assert message == f"synth --family takes CNOT_12 or CNOT_21, got {tag}"


def test_synth_winding_defaults_to_one(capsys):
    assert run(capsys, "synth", "CNOT_21") == run(capsys, "synth", "CNOT_21", "--m", "1", "--m-prime", "0")
    family = run(capsys, "synth", "CNOT_21", "--family", "--format", "csv")
    assert family == run(capsys, "synth", "CNOT_21", "--family", "--m", "1", "--format", "csv")


@pytest.mark.parametrize("tag", ["T_translator", "B_H"])
def test_card_of_a_gate_without_a_row_keeps_its_error(capsys, tmp_path, card_file, tag):
    # a target set of a gate without a published row does not build, so the card is refused there
    f = _edited(tmp_path, Path(card_file).read_text(), lambda d: d.update(gate=tag))
    message = _assert_input_error(capsys, "fidelity-sweep", f, "--states", "1")
    assert message == f"{tag} has no pulse prescription"


def test_card_with_infeasible_weights_is_input_error(capsys, tmp_path):
    # the residuals match their recomputation, but the solver refuses these targets, so the reader does too
    card = tmp_path / "card.json"
    assert cli.main(["synth", "S_phi_q2", "--phi", "0.5", "--out", str(card)]) == 0

    def edit(doc):
        doc["targets"]["j_targets"] = [1.5, -1.0]
        doc["residuals"][3:5] = [2.5, 2.0]

    f = _edited(tmp_path, card.read_text(), edit)
    message = _assert_input_error(capsys, "fidelity-sweep", f, "--states", "1")
    assert message == "infeasible targets: weight outside [-1, 1] in (1.5, -1.0)"


def _run_quietly(argv):
    """cli.main in process, its stdout and stderr captured without a fixture."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def _assert_exit_contract(code, out, err):
    """Exit 0 with no stderr, or exit 2 or 3 with one JSON error line and no stdout."""
    assert code in (0, 2, 3)
    if code == 0:
        assert err == ""
        return
    assert out == "" and err.count("\n") == 1 and err.endswith("\n")
    kinds = ("usage", "input") if code == 2 else ("numerical", "solver")
    doc = json.loads(err)
    assert list(doc) == ["error"] and list(doc["error"]) == ["type", "message"]
    assert doc["error"]["type"] in kinds


def _assert_csv(out):
    header, *rows = out.splitlines()
    assert header and rows
    assert {len(row.split(",")) for row in rows} == {len(header.split(","))}


def _assert_card_reads_back(doc):
    card = PrescriptionCard.from_doc(doc)
    assert json.loads(dumps(card.to_doc())) == doc
    assert windings_give_rotations(doc)


#: option values at the edges: signed zeros, subnormals, near and past the float range, no number at all
_REAL_TEXTS = st.one_of(
    st.sampled_from(["0", "-0.0", "5e-324", "-5e-324", "2.2e-308", "3.141592653589793", "-5e-3", "1e-2,5e-3",
                     "1e300", "-1e300", "1.7976931348623157e308", "1e309", "-inf", "nan", "abc", ""]),
    st.floats(-1e3, 1e3).map(repr),
)
_INTEGERS = st.one_of(st.integers(-2, 4), st.sampled_from([10**8, 10**306, HUGE, -HUGE]))
_WINDING_TEXTS = st.one_of(
    _INTEGERS.map(str),
    # a range spans at most four cards, or runs past the float range so its far end is refused first
    st.tuples(_INTEGERS, st.one_of(st.integers(-1, 3), st.just(HUGE))).map(lambda r: f"{r[0]}..{r[0] + r[1]}"),
    st.sampled_from(["abc", "1..", "..2", "1.5", ""]),
)


@st.composite
def _spelled(draw, option, value=None):
    """An option in full or, one time in four, by a prefix of it; its value after a space or attached with "="."""
    full = draw(st.sampled_from([True] * 3 + [False]))
    name = option if full else option[: draw(st.sampled_from(range(3, len(option) + 1)))]
    if value is None:
        return [name]
    return draw(st.sampled_from([[name, value], [f"{name}={value}"]]))


@st.composite
def _synth_argv(draw):
    """A synth command: each option that fits the gate and mode seven times in ten, any other one time in ten."""
    tag = draw(st.sampled_from(SOLVABLE_TAGS))
    cnot = tag.startswith("CNOT")
    # lists, not integer ranges: hypothesis favours their first entry, so the common case comes first
    fits, misfits = st.sampled_from([True] * 7 + [False] * 3), st.sampled_from([False] * 9 + [True])
    family = draw(st.booleans() if cnot else misfits)
    fitting = {"--format"}
    if tag.startswith("S_phi"):
        fitting |= {"--phi"} | ({"--route"} if tag == "S_phi_q1" else set())
    if cnot:
        fitting |= {"--m", "--field-scale"} if family else {"--m", "--m-prime"}
    windings = st.integers(1, 3).map(str)
    if family:
        # a range past the float range is refused at its far end, before any card is solved
        windings = st.sampled_from(["1..2", f"1..{HUGE}", "2..4", f"{HUGE}..{HUGE}"])
    options = [("--family", None)] if family else []
    for option, values in [
        ("--phi", _REAL_TEXTS),
        ("--m", st.one_of(windings, _WINDING_TEXTS)),
        ("--m-prime", st.one_of(st.integers(0, 2), _INTEGERS).map(str)),
        ("--route", st.sampled_from(["printed", "alternate"])),
        ("--field-scale", _REAL_TEXTS),
        ("--format", st.sampled_from(["csv", "json"] if family else ["json"] * 4 + ["csv"])),
    ]:
        if draw(fits if option in fitting else misfits):
            options.append((option, draw(values)))
    argv = ["synth", tag]
    for option, value in draw(st.permutations(options)):
        argv += draw(_spelled(option, value))
    return argv


@settings(max_examples=200, deadline=None)
@given(_synth_argv())
# regressions run every time: a range listed before its far end is checked, windings past the float range
@example(["synth", "CNOT_12", "--family", "--m", f"1..{HUGE}"])
@example(["synth", "CNOT_21", "--m", str(HUGE)])
@example(["synth", "CNOT_12", "--m-prime", str(HUGE)])
def test_synth_keeps_the_exit_contract(argv):
    code, out, err = _run_quietly(argv)
    _assert_exit_contract(code, out, err)
    if code != 0:
        return
    if out.startswith("{"):
        doc = json.loads(out)
        for card in doc["family"] if "family" in doc else [doc]:
            card.pop("b_abs", None)
            _assert_card_reads_back(card)
    else:
        _assert_csv(out)


def _base_cards():
    rows = [
        prescription_targets(GateId("H_q2")),
        prescription_targets(GateId("S_phi_q2", phi=0.5)),
        prescription_targets(GateId("S_phi_q1", phi=2.0), route="alternate"),
        prescription_targets(GateId("CNOT_12"), m=2, m_prime=1),
    ]
    docs = [solve_physical(tg).to_doc() for tg in rows]
    docs.append(bellgate.cnot_family(GateId("CNOT_21"), m=2, field_scale=3.0).to_doc())
    return [json.loads(dumps(doc)) for doc in docs]


_BASE_CARDS = _base_cards()
#: document values at the edges: numbers, integers past the float range, and wrong JSON types
_DOC_VALUES = st.one_of(
    st.sampled_from([HUGE, -HUGE, 2**1024]),
    st.sampled_from([0, 1, 2, 7, -1, 0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300, 1.7976931348623157e308,
                     math.inf, math.nan]),
    st.sampled_from([True, False, None, "x", [], {}, [0.0, 0.0], [0.5, 0.5, 0.5]]),
)


@st.composite
def _mutated_card(draw):
    """A solved card as it is, with its windings edited, or with one key set to an edge value, dropped, or added."""
    doc = json.loads(json.dumps(draw(st.sampled_from(_BASE_CARDS))))
    action = draw(st.sampled_from(["none", "windings", "windings", "set", "set", "item", "drop"]))
    if action == "windings":
        winding = st.one_of(st.none(), st.integers(0, 9), _INTEGERS)
        which = draw(st.sampled_from(["m", "m_prime", "both"]))
        if which != "m_prime":
            doc["m"] = draw(winding)
        if which != "m":
            doc["targets"]["m_prime"] = draw(winding)
        return doc
    where = draw(st.sampled_from([doc, doc["targets"], doc["solved"]]))
    key = draw(st.sampled_from(sorted(where) + ["extra"]))
    if action == "drop":
        where.pop(key, None)
    elif action == "item" and isinstance(where.get(key), list) and where[key]:
        where[key][draw(st.integers(0, len(where[key]) - 1))] = draw(_DOC_VALUES)
    elif action != "none":
        where[key] = draw(_DOC_VALUES)
    return doc


def _base_card_with(index, edit):
    doc = json.loads(json.dumps(_BASE_CARDS[index]))
    edit(doc)
    return doc


@settings(max_examples=150, deadline=None)
@given(
    doc=_mutated_card(),
    steps=st.sampled_from(["1e-2", "-5e-3", "1e-2,5e-3", "0", "1e200", "nan", ","]),
    fmt=st.sampled_from(["json", "csv"]),
)
# regressions run every time: edited CNOT windings, an integer past the float range
@example(doc=_base_card_with(3, lambda d: d.update(m=7)), steps="1e-2", fmt="csv")
@example(doc=_base_card_with(3, lambda d: (d.update(m=None), d["targets"].update(m_prime=None))), steps="1e-2",
         fmt="csv")
@example(doc=_base_card_with(0, lambda d: d["solved"].update(t=HUGE)), steps="1e-2", fmt="json")
def test_fidelity_sweep_keeps_the_exit_contract(tmp_path_factory, doc, steps, fmt):
    card = tmp_path_factory.getbasetemp() / "exit-contract-card.json"
    card.write_text(json.dumps(doc))
    code, out, err = _run_quietly(["fidelity-sweep", str(card), "--states", "1", "--steps", steps, "--format", fmt])
    _assert_exit_contract(code, out, err)
    if code != 0:
        return
    # a card the sweep accepts names windings that give its rotations
    assert windings_give_rotations(doc)
    if fmt == "csv":
        _assert_csv(out)
    else:
        assert json.loads(out)["m"] == doc["m"]


# The exit contract on the commands of the propagator, the Bell split and the compiler.

#: parameter values at the edges: signed zeros, subnormals, near the float maximum, no number at all
_PARAM_VALUES = st.one_of(
    st.floats(-2.0, 2.0),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300, 1.7976931348623157e308,
                     -1.7976931348623157e308]),
)
_WRONG_VALUES = st.sampled_from([True, None, "x", [], {}, [0.0, 0.0], math.inf, math.nan, 2, HUGE])


@st.composite
def _params_doc(draw):
    """A parameter document: drawn couplings, a degenerate block, or a sum that overflows; sometimes mistyped."""
    h = draw(st.integers(1, 3))
    c = draw(st.lists(_PARAM_VALUES, min_size=5, max_size=5))
    kind = draw(st.sampled_from(["drawn", "degenerate", "overflowing"]))
    if kind == "degenerate":
        # |c| = 0 on one block, as in conftest's DEGENERATE table
        a, b, s_j, s_b = DEGENERATE[(h, draw(st.integers(1, 2)))]
        c[b] = s_j * c[a]
        c[4] = s_b * c[3]
    elif kind == "overflowing":
        # J1 + J2 overflows while the Hamiltonian is assembled
        c[0] = c[1] = 1.7e308
    t = draw(st.one_of(st.sampled_from([0.0, -0.0, 5e-324, 1e308]), st.floats(0.0, 4.0)))
    doc = {"t": t, "J": c[:3], "B1": c[3], "B2": c[4], "h": h}
    action = draw(st.sampled_from(["none"] * 4 + ["set", "drop"]))
    key = draw(st.sampled_from(sorted(doc) + ["extra"]))
    if action == "set":
        doc[key] = draw(_WRONG_VALUES)
    elif action == "drop":
        doc.pop(key, None)
    return doc


_PARAMS_OPTIONS = st.sampled_from(
    [("evolve",), ("evolve", "--format", "csv"), ("evolve", "--format", "json"), ("blocks",),
     ("blocks", "--cross-h", "1"), ("blocks", "--cross-h", "2"), ("blocks", "--cross-h", "3"),
     ("blocks", "--cross-h", "4"), ("blocks", "--format", "csv"), ("evolve", "--cross-h", "1")]
)


@settings(max_examples=120, deadline=None)
@given(doc=_params_doc(), argv=_PARAMS_OPTIONS)
# regressions run every time: t = 0, a degenerate block, an overflowing sum and phase, a wrong type
@example(doc={"t": 0.0, "J": [1.0, -0.0, 0.5], "B1": 5e-324, "B2": -0.0, "h": 2}, argv=("blocks", "--cross-h", "1"))
@example(doc={"t": 1.5, "J": [0.0, 0.7, 0.7], "B1": 0.3, "B2": -0.3, "h": 1}, argv=("blocks",))
@example(doc=json.loads(OVERFLOWING_SUM), argv=("evolve", "--format", "csv"))
@example(doc={"t": 1e308, "J": [3.0, 0.0, 0.0], "B1": 0.0, "B2": 0.0, "h": 1}, argv=("blocks",))
@example(doc={"t": 1.0, "J": [1.0, 0.0, 0.0], "B1": 0.0, "B2": 0.0, "h": True}, argv=("evolve",))
def test_evolve_and_blocks_keep_the_exit_contract(tmp_path_factory, doc, argv):
    f = tmp_path_factory.getbasetemp() / "exit-contract-params.json"
    f.write_text(json.dumps(doc))
    code, out, err = _run_quietly([argv[0], str(f), *argv[1:]])
    _assert_exit_contract(code, out, err)
    if code == 0 and "csv" in argv:
        _assert_csv(out)
    elif code == 0:
        json.loads(out)


_LIBRARY_ENTRIES = [{"gate": tag, "qubit": q} for tag in ("B_S8", "B_S4", "B_H") for q in (1, 2)]
_CIRCUIT_ENTRIES = st.one_of(
    st.sampled_from(_LIBRARY_ENTRIES + [{"gate": "B_CNOT12"}, {"gate": "B_CNOT21"}]),
    # a one-level gate without its qubit, an unknown tag, a Bell-basis gate, mistyped entries
    st.sampled_from([{"gate": "B_H"}, {"gate": "B_S4"}, {"gate": "B_T", "qubit": 1}, {"gate": "H_q2"},
                     {"gate": "S_phi_q2", "phi": 0.5}, {"gate": "B_H", "qubit": 3}, {"gate": "B_H", "qubit": True},
                     {"gate": "B_CNOT12", "qubit": 1}, {"gate": "B_S8", "qubit": 1, "phi": 0.1},
                     {"gate": "OPAQUE", "matrix": np.eye(4).tolist()}, {"qubit": 1}, "B_H", None, []]),
)


@st.composite
def _circuit_doc(draw):
    """A circuit document, empty or not, mostly computational; sometimes malformed as a whole."""
    gates = draw(st.lists(_CIRCUIT_ENTRIES, max_size=6))
    basis = draw(st.sampled_from(["computational"] * 6 + ["bell", "spin", None]))
    malformed = [{"gates": gates}, {"basis": basis, "gates": "B_H"}, gates]
    return draw(st.sampled_from([{"basis": basis, "gates": gates}] * 6 + malformed))


@settings(max_examples=120, deadline=None)
@given(_circuit_doc())
# regressions run every time: empty, a qubit-less one-level gate, an unknown tag
@example({"basis": "computational", "gates": []})
@example({"basis": "computational", "gates": [{"gate": "B_CNOT12"}, {"gate": "B_H"}]})
@example({"basis": "computational", "gates": [{"gate": "B_T", "qubit": 1}]})
def test_compile_keeps_the_exit_contract(tmp_path_factory, doc):
    f = tmp_path_factory.getbasetemp() / "exit-contract-circuit.json"
    f.write_text(json.dumps(doc))
    code, out, err = _run_quietly(["compile", str(f)])
    _assert_exit_contract(code, out, err)
    if code == 0:
        assert json.loads(out)["equivalence_residual"] <= 1e-9
