"""Checks of the benchmark itself; run with ``python3 -m pytest bench``.

Each test starts bench/run.py as a user would.  The traced runs take
about a minute in total.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

#: the workload on which each layer's per-layer metrics must be nonzero
EXERCISED_BY = {
    "spinlin": "scan",
    "model": "scan",
    "bellframe": "scan",
    "gates": "scan",
    "calib": "synth",
    "fidelity": "sweep",
    "cli": "cli",
}
#: per-layer findings that are zero whenever the traced inputs happen to be accurate
FINDINGS = {"fidelity.gradient_miss_share"}


def run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=600
    )


def last_json(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(set(EXERCISED_BY.values())))
def test_traced_run_reports_every_layer_metric(workload):
    doc = last_json(run("--workload", workload, "--seed", "0", "--seconds", "4", "--trace", "1"))
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert set(doc["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    for m in SPEC["per_layer"]:
        got = doc["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        if EXERCISED_BY.get(m["name"].split(".")[0]) == workload and m["name"] not in FINDINGS:
            assert got["value"] > 0, m["name"]


def test_untraced_run_reports_end_to_end_metrics():
    doc = last_json(run("--workload", "scan", "--seed", "3", "--seconds", "2"))
    assert doc["correct"] and doc["failed"] == 0 and doc["attempted"] >= 1
    assert {k: v["unit"] for k, v in doc["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]
    }
    assert all(v["value"] > 0 for v in doc["metrics"].values())


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = run("--workload", "scan", "--seed", "0", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
