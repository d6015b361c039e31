"""Command-line surface: schemas, determinism, and exit codes."""

import json
import re
import warnings

import numpy as np
import pytest

import bellgate.cli as cli
from bellgate import (
    Circuit,
    GateId,
    PhysicalParams,
    SolverFailure,
    evolve,
    parse_card,
    prescription_targets,
    solve_physical,
)

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
    want = evolve(PhysicalParams.from_json(PARAMS_TEXT))
    assert np.max(np.abs(u - want)) < 1e-15


def test_evolve_csv_matches_library(capsys, params_file):
    code, out, _ = run(capsys, "evolve", params_file, "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "row,col,re,im"
    assert len(lines) == 17
    want = evolve(PhysicalParams.from_json(PARAMS_TEXT))
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
    assert json.loads(err)["error"]["type"] == "input"


def test_synth_card_round_trips_into_library(capsys):
    code, out, _ = run(capsys, "synth", "S_phi_q2", "--phi", "0.5")
    assert code == 0
    card = parse_card(out)
    want = solve_physical(prescription_targets(GateId("S_phi_q2", phi=0.5)))
    assert card == want


def test_synth_alternate_route(capsys):
    code, out, _ = run(capsys, "synth", "S_phi_q1", "--phi", "0.5", "--route", "alternate")
    assert code == 0
    card = parse_card(out)
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


def test_synth_family_json_schema(capsys):
    code, out, _ = run(capsys, "synth", "CNOT_21", "--family", "--m", "2..3")
    assert code == 0
    doc = json.loads(out)
    assert doc["field_scale"] == 1.0
    assert [entry["m"] for entry in doc["family"]] == [2, 3]
    for entry in doc["family"]:
        assert entry["gate"] == "CNOT_21"
        assert 0.0 < entry["b_abs"] <= 1.0


def test_synth_range_requires_family(capsys):
    code, _, err = run(capsys, "synth", "CNOT_12", "--m", "2..4")
    assert code == 2
    assert json.loads(err)["error"]["type"] == "input"


def test_compile_document(capsys, circuit_file):
    code, out, _ = run(capsys, "compile", circuit_file)
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == {"compiled", "equivalence_residual"}
    assert doc["equivalence_residual"] < 1e-9
    compiled = Circuit.from_json(json.dumps(doc["compiled"]))
    assert compiled.basis == "bell"
    assert compiled.gates[0].tag == "T_translator"
    assert compiled.gates[-1].tag == "T_translator"


def test_compile_rejects_csv(capsys, circuit_file):
    code, _, err = run(capsys, "compile", circuit_file, "--format", "csv")
    assert code == 2
    assert json.loads(err)["error"]["type"] == "input"


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


def test_out_flag_writes_stdout_bytes(capsys, params_file, tmp_path):
    code, out, _ = run(capsys, "evolve", params_file)
    assert code == 0
    target = tmp_path / "u.json"
    code2, out2, _ = run(capsys, "evolve", params_file, "--out", str(target))
    assert code2 == 0 and out2 == ""
    assert target.read_text() == out


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
