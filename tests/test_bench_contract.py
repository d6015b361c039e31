"""The interface the bench sweep workload reads from a sweep result.

The bench's sweep workload times ``sensitivity_sweep`` and then counts
and checks what it returns through ``len()`` and iteration over
``FidelityReport`` views.  This runs that workload's own ``op``,
``items`` and ``check`` on every card of its pool, so a change to the
sweep result that breaks the bench fails here first.  The bench files
are imported, never changed.
"""

import importlib
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_sweep_workload_reads_every_result(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    workloads = importlib.import_module("workloads")
    wl = workloads.Sweep(0, tmp_path)
    assert wl.inputs
    for card in wl.inputs:
        result = wl.op(card)
        assert wl.items(result) == 64 * 6 * 3
        failed = [name for name in wl.check(card, result) if name not in wl.accuracy_checks]
        assert failed == [], (card.targets.gate.tag, card.targets.m)
