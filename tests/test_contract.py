"""The output contract: what every recorded bellgate invocation prints and exits with.

tests/data/contract.json holds each case's argv, its input files inline,
its exit code, the sha256 of its stdout and its stderr text (and the
sha256 of any file it wrote with --out).  Each case runs again in
process through bellgate.cli.main, with the runner that recorded it, in
a fresh directory, and must give the recorded result.

The expected bytes come from the program, so this is a regression
contract, not a correctness oracle; the oracle tests
(test_synth_output.py, test_sweep_output.py, test_matrix_output.py)
decide correctness.  A deliberate change of output is rewritten with

    PYTHONPATH=src python3 tests/data/make_contract.py

and shows up as the diff of contract.json.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

_DATA = Path(__file__).resolve().parent / "data"


def _make_contract():
    spec = importlib.util.spec_from_file_location("make_contract", _DATA / "make_contract.py")
    module = importlib.util.module_from_spec(spec)
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


make_contract = _make_contract()
CASES = json.loads((_DATA / "contract.json").read_text(encoding="utf-8"))["cases"]
_INPUTS = ("id", "argv", "files")


@pytest.mark.parametrize("case", CASES, ids=[case["id"] for case in CASES])
def test_case_keeps_its_recorded_result(case, tmp_path):
    want = {key: value for key, value in case.items() if key not in _INPUTS}
    assert make_contract.run(case["argv"], case["files"], tmp_path) == want


def test_contract_lists_the_cases_of_its_script():
    # the committed file is the script's case list; a case added to one only is caught here
    recorded = [{key: case[key] for key in _INPUTS} for case in CASES]
    assert recorded == make_contract.cases()
