"""bellgate benchmark: four seeded closed-loop workloads, checked against oracles.

Run from the root of a checkout:

    python3 bench/run.py --workload scan --seed 1 --seconds 20 --trace 0

Workloads are scan, synth, sweep and cli (``--workload all`` runs each in
turn).  Every workload runs in fresh worker processes (bench/worker.py)
that import bellgate from the checkout's ``src/``, with BLAS and OpenMP
pinned to one thread and all processes pinned to one core.  Set-up (fresh process to ready-to-time) is
measured in SETUP_RUNS processes and reported as their median; the last
of them then runs the timed loop.  Times are reported in reference
seconds: wall-clock time rescaled to a fixed machine speed measured
next to each interval (see speed.py); the report also prints the raw
wall-clock figures.  ``--trace 0`` prints the end-to-end
metrics, ``--trace 1`` the per-layer metrics of a traced run together
with its overhead against an untraced run of the same inputs.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  The exit code is nonzero, and
no such line is printed, if a worker crashes or the checkout has no
``src/bellgate``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import speed

WORKLOADS = ("scan", "synth", "sweep", "cli")
SETUP_RUNS = 3
THREAD_PINS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
#: seconds a worker may take beyond the timed loop (set-up, last operation, checks)
WORKER_SLACK_S = 150.0


def spawn(root: Path, env: dict, argv: list[str], timeout: float) -> tuple[float, float, dict, dict | None]:
    """Run one worker.

    Returns its set-up time (start to ready line) in reference and in
    wall-clock seconds, its ready document and its result document.
    """
    sampler = speed.Sampler()
    with sampler:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(root / "bench" / "worker.py"), "--root", str(root), *argv],
            cwd=root, env=env, stdout=subprocess.PIPE, text=True,
        )
        watchdog = threading.Timer(timeout, proc.kill)
        watchdog.start()
        ready_line = proc.stdout.readline()
        t1 = time.perf_counter()
    try:
        setup_ref_s = (t1 - t0) * sampler.factor(t0, t1)
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if code != 0 or not ready_line:
        raise RuntimeError(f"worker {' '.join(argv)} exited with code {code}")
    ready = json.loads(ready_line)
    lines = rest.strip().splitlines()
    return setup_ref_s, t1 - t0, ready, json.loads(lines[-1]) if lines else None


def measure(root: Path, env: dict, workload: str, seed: int, seconds: float, trace: int) -> dict:
    argv = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    setups = [spawn(root, env, argv + ["--role", "setup"], WORKER_SLACK_S)[:2] for _ in range(SETUP_RUNS - 1)]
    setup_ref_s, setup_s, ready, result = spawn(root, env, argv, seconds + WORKER_SLACK_S)
    setups.append((setup_ref_s, setup_s))
    if result is None or result.get("event") != "result":
        raise RuntimeError(f"worker {workload} printed no result")
    return {"setups": setups, "ready": ready, **result}


def end_to_end(workload: str, m: dict) -> dict[str, tuple[float, str, int]]:
    loop = m["loop"]
    return {
        "setup_s": (statistics.median(ref for ref, _ in m["setups"]), "s", len(m["setups"])),
        "op_p50_s": (loop["latency_s"]["p50"], "s", loop["ops"]),
        "items_per_s": (loop["items_per_s"], "1/s", loop["items"]),
        "peak_rss_mb": (loop["peak_rss_mb"], "MB", 1),
    }


def report(workload: str, m: dict, trace: int) -> dict[str, dict]:
    """Print the human-readable report; return the metrics for the JSON line."""
    loop, ready = m["loop"], m["ready"]
    print(f"## workload {workload}: one client, closed loop; operation = {ready['operation']}")
    print(f"# why: {ready['why']}")
    print(f"# inputs: {json.dumps(ready['inputs'])}")
    for name, value in sorted(loop["latency_s"].items()):
        if name != "p50":
            print(f"  op_{name}_s {value:.6g} s (n={loop['ops']})")
    wall_setup = statistics.median(w for _, w in m["setups"])
    print(f"  wall clock: op_p50 {loop['wall_p50_s']:.6g} s, {loop['wall_items_per_s']:.6g} items/s, "
          f"setup {wall_setup:.6g} s; median speed factor {loop['speed_factor_p50']:.4g}")
    fail_ratio = loop["failed"] / loop["ops"]
    print(f"  fail_ratio {fail_ratio:.6g} (failed {loop['failed']} of {loop['ops']} operations)")
    for name, note in ready["accuracy_checks"].items():
        miss_ratio = loop["accuracy_misses"] / loop["ops"]
        print(f"  accuracy_miss_ratio {miss_ratio:.6g} ({loop['accuracy_misses']} of {loop['ops']} "
              f"operations outside the {name} check: {note})")
    for f in loop["failures"]:
        print(f"    input {f['input']} outside: {', '.join(f['checks'])}")
    if trace:
        layers = {k: {"value": v, "unit": u} for k, (v, u) in m["layers"].items()}
        print(f"  traced {loop['ops']} ops, untraced {m['untraced']['ops']} ops on the same inputs")
        for k, d in layers.items():
            print(f"  {k} {d['value']:.6g} {d['unit']}")
        return layers
    metrics = {}
    for name, (value, unit, n) in end_to_end(workload, m).items():
        alias = ready["aliases"].get(name)
        label = f"{alias} (= {name})" if alias else name
        per = f" per {ready['item']}" if name == "items_per_s" else ""
        print(f"  {label} {value:.6g} {unit}{per} (n={n})")
        metrics[name] = {"value": value, "unit": unit}
    return metrics


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = Path(__file__).resolve().parent.parent
    if not (root / "src" / "bellgate" / "__init__.py").is_file():
        print(f"no bellgate package under {root / 'src'}", file=sys.stderr)
        return 2
    os.environ.update(THREAD_PINS)
    # one core for this process and every worker, so that the speed kernel
    # and the timed work always share the core they are measured on
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    env = dict(os.environ, PYTHONPATH=str(root / "src"))

    selected = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {w: measure(root, env, w, args.seed, args.seconds, args.trace) for w in selected}
    except (RuntimeError, OSError, ValueError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    env_doc = next(iter(results.values()))["ready"]["env"]
    print(f"# bellgate benchmark seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print(f"# env: {json.dumps(env_doc)}")
    print(f"# note: {env_doc['nproc']}-CPU machine that may be shared; CPU frequency and the file cache are not pinned")
    metrics: dict[str, dict] = {}
    attempted = failed = 0
    for w, m in results.items():
        got = report(w, m, args.trace)
        prefix = f"{w}." if len(results) > 1 else ""
        metrics.update({prefix + k: v for k, v in got.items()})
        attempted += m["loop"]["ops"]
        failed += m["loop"]["failed"]
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
