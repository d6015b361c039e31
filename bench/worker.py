"""One workload in a fresh process: set up, time, check, report.

Started by run.py.  Writes JSON lines to stdout: ``{"event": "ready"}``
once the package is imported, the inputs are generated and one
untimed warm-up operation is done, then (unless ``--role setup``) one
``{"event": "result"}`` line after the timed loop.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed

#: modules whose cumulative ``-X importtime`` cost is reported
IMPORTS = {"bellgate": "bellgate_s", "scipy.optimize": "scipy_optimize_s", "scipy.stats": "scipy_stats_s"}
WARM_REPEATS = 3


def emit(doc: dict) -> None:
    sys.stdout.write(json.dumps(doc) + "\n")
    sys.stdout.flush()


def percentiles(times: list[float]) -> dict[str, float]:
    """Median plus the highest of p90/p99 that has at least ten samples beyond it."""
    out = {"p50": statistics.median(times)}
    cuts = statistics.quantiles(times, n=100, method="inclusive") if len(times) >= 2 else []
    for q in (99, 90):
        if len(times) * (100 - q) / 100 >= 10:
            out[f"p{q}"] = cuts[q - 1]
            break
    return out


def run_loop(wl, seconds: float) -> dict:
    """Closed loop over the inputs from the first one on, for `seconds` of wall time.

    Only ``op`` is timed; ``check`` runs between operations.  Times are
    in reference seconds (see speed.py); the wall-clock figures are kept
    alongside.
    """
    spans: list[tuple[float, float]] = []
    items = failed = misses = 0
    failures = []
    with speed.Sampler() as sampler:
        deadline = time.perf_counter() + seconds
        i = 0
        while i == 0 or time.perf_counter() < deadline:
            inp = wl.inputs[i % len(wl.inputs)]
            t0 = time.perf_counter()
            try:
                out = wl.op(inp)
            except Exception as exc:  # a raising operation is counted, not fatal
                spans.append((t0, time.perf_counter()))
                bad = [f"raised {type(exc).__name__}: {exc}"]
            else:
                spans.append((t0, time.perf_counter()))
                items += wl.items(out)
                bad = wl.check(inp, out)
            if bad:
                failed += any(b not in wl.accuracy_checks for b in bad)
                misses += any(b in wl.accuracy_checks for b in bad)
                failures.append({"input": i % len(wl.inputs), "checks": bad})
            i += 1
        factors = [sampler.factor(t0, t1) for t0, t1 in spans]
    wall = [t1 - t0 for t0, t1 in spans]
    times = [w * f for w, f in zip(wall, factors)]
    return {
        "ops": len(times),
        "items": items,
        "items_per_s": items / sum(times),
        "latency_s": percentiles(times),
        "wall_items_per_s": items / sum(wall),
        "wall_p50_s": statistics.median(wall),
        "speed_factor_p50": statistics.median(factors),
        "failed": failed,
        "accuracy_misses": misses,
        "failures": failures,
    }


def cli_probe(workloads, seed: int, workdir: Path) -> dict[str, tuple[float, str]]:
    """Import cost of a cold process and warm in-process time of each subcommand.

    Both are scaled to reference seconds over the interval they were measured in.
    """
    with speed.Sampler() as sampler:
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import bellgate"],
            cwd=workdir, capture_output=True, text=True, timeout=120, check=True,
        )
        f = sampler.factor(t0, time.perf_counter())
        cumulative = {}
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if line.startswith("import time:") and len(parts) == 3 and parts[1].strip().isdigit():
                cumulative[parts[2].strip()] = int(parts[1]) / 1e6 * f
        out = {f"cli.import.{key}": (cumulative.get(mod, 0.0), "s") for mod, key in IMPORTS.items()}
        cli = workloads.Cli(seed, workdir)
        for argv, _ in cli.inputs:
            key = f"cli.{argv[0]}.warm_s"
            if key in out:
                continue
            times = []
            for _ in range(WARM_REPEATS):
                t0 = time.perf_counter()
                cli.run_in_process(argv)
                t1 = time.perf_counter()
                times.append((t0, t1))
            out[key] = (statistics.median((t1 - t0) * sampler.factor(t0, t1) for t0, t1 in times), "s")
    return out


def environment() -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "pinned_cpus": sorted(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {k: os.environ.get(k) for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--role", choices=("setup", "main"), default="main")
    args = ap.parse_args()

    root = Path(args.root).resolve()
    src = root / "src"
    sys.path.insert(0, str(src))
    import bellgate

    if Path(bellgate.__file__).resolve().parent != src / "bellgate":
        raise SystemExit(f"bellgate imported from {bellgate.__file__}, not from {src}")
    import tracing
    import workloads

    workdir = root / ".bench_work" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
        wl.warmup()
        emit({
            "event": "ready", "env": environment(), "why": wl.why, "operation": wl.operation,
            "item": wl.item, "aliases": wl.aliases, "accuracy_checks": wl.accuracy_checks,
            "inputs": wl.describe(),
        })
        if args.role == "setup":
            return 0
        if not args.trace:
            loop = run_loop(wl, args.seconds)
            usage = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
            loop["peak_rss_mb"] = resource.getrusage(usage).ru_maxrss / 1024.0
            emit({"event": "result", "loop": loop})
            return 0
        plain = run_loop(wl, args.seconds / 2)
        with tracing.Tracer() as tracer:
            traced = run_loop(wl, args.seconds / 2)
        cards = traced["ops"] - traced["failed"] if args.workload == "synth" else 0
        reports = traced["items"] if args.workload == "sweep" else 0
        layers = tracer.metrics(traced["ops"], cards, reports, traced["speed_factor_p50"])
        layers.update(cli_probe(workloads, args.seed, workdir))
        overhead = 100.0 * (1.0 - traced["items_per_s"] / plain["items_per_s"])
        layers["trace.overhead_pct"] = (overhead, "%")
        layers["fidelity.gradient_miss_share"] = (traced["accuracy_misses"] / traced["ops"], "share")
        emit({"event": "result", "loop": traced, "untraced": plain, "layers": layers})
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()


if __name__ == "__main__":
    raise SystemExit(main())
