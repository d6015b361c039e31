"""The interfaces the bench reads from the package.

The bench's sweep workload times ``sensitivity_sweep`` and then counts
and checks what it returns through ``len()`` and iteration over
``FidelityReport`` views.  This runs that workload's own ``warmup``,
which sweeps a one-state slice of the sampled states, and its ``op``,
``items`` and ``check`` on every card of its pool, so a change to the
sweep result that breaks the bench fails here first.  The scan and
synth workloads get the same treatment: scan on the first 256 of its
inputs, synth on its whole pool.  The bench tracer
counts calls of the functions it names, and only of those its layer
module still lists as public.  The bench files are imported, never
changed.
"""

import importlib
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    return importlib.import_module("workloads")


def test_sweep_workload_reads_every_result(monkeypatch, tmp_path):
    wl = _workloads(monkeypatch).Sweep(0, tmp_path)
    assert wl.inputs
    wl.warmup()
    for card in wl.inputs:
        result = wl.op(card)
        assert wl.items(result) == 64 * 6 * 3
        failed = [name for name in wl.check(card, result) if name not in wl.accuracy_checks]
        assert failed == [], (card.targets.gate.tag, card.targets.m)


def test_scan_workload_passes_its_checks(monkeypatch, tmp_path):
    wl = _workloads(monkeypatch).Scan(0, tmp_path)
    assert len(wl.inputs) >= 256
    for i, inp in enumerate(wl.inputs[:256]):
        out = wl.op(inp)
        assert wl.items(out) == 1
        assert wl.check(inp, out) == [], (i, inp[0])


def test_synth_workload_passes_its_checks(monkeypatch, tmp_path):
    wl = _workloads(monkeypatch).Synth(0, tmp_path)
    assert wl.inputs
    for published, tg in wl.inputs:
        card = wl.op((published, tg))
        assert wl.items(card) == 1
        assert wl.check((published, tg), card) == [], (tg.gate.tag, tg.m, tg.m_prime)


def test_tracer_targets_are_public(monkeypatch):
    # a target missing from its module's __all__ is reported as absent, and
    # its per-layer metrics read 0; least_squares is scipy's, wrapped at its source
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    tracing = importlib.import_module("tracing")
    assert tracing.TARGETS
    for layer, name in tracing.TARGETS:
        if name == "least_squares":
            continue
        module = importlib.import_module(f"bellgate.{layer}")
        assert name in module.__all__, f"bellgate.{layer}.{name}"
        assert callable(getattr(module, name))
