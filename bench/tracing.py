"""Per-layer call counts and busy time, recorded from outside the package.

A traced function is found by identity, not by name: every module-level
binding in ``bellgate.*`` that *is* the target gets the wrapper, so
``from .model import evolve`` copies inside other modules are counted
too.  ``scipy.optimize.least_squares`` is wrapped at its source as well,
which keeps the solver counted if the package moves its import into a
function.  A target that is no longer public in its layer module is
reported as absent rather than as zero.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

#: (layer, function) pairs; the function must be listed in the layer
#: module's ``__all__`` (least_squares is calib's solver import)
TARGETS = (
    ("spinlin", "expm_hermitian"),
    ("spinlin", "dist_phase_invariant"),
    ("model", "evolve"),
    ("model", "build_hamiltonian"),
    ("model", "assemble_hamiltonian"),
    ("bellframe", "reduced_params"),
    ("bellframe", "to_blocks"),
    ("bellframe", "closed_form_block"),
    ("gates", "compile_circuit"),
    ("gates", "matrix_of"),
    ("calib", "solve_physical"),
    ("calib", "least_squares"),
    ("fidelity", "directional_derivatives"),
    ("fidelity", "fidelity_exact"),
    ("fidelity", "fidelity_second_order"),
)

#: functions whose self time (busy time net of traced callees) is reported
SELF_TIME = ("model.evolve",)


def _find(layer: str, name: str):
    mod = importlib.import_module(f"bellgate.{layer}")
    if name == "least_squares":
        import scipy.optimize

        return getattr(mod, name, scipy.optimize.least_squares)
    if name in getattr(mod, "__all__", ()):
        return getattr(mod, name, None)
    return None


class Tracer:
    """Context manager that wraps every TARGETS binding while active.

    stats maps "layer.fn" to [calls, busy seconds, seconds in traced
    callees]; nfev sums ``least_squares`` results' evaluation counts.
    """

    def __init__(self):
        self.stats: dict[str, list[float]] = {}
        self.nfev = 0
        self._stack: list[float] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, key: str, fn):
        stat = self.stats[key] = [0, 0.0, 0.0]
        stack = self._stack
        count_nfev = key == "calib.least_squares"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                stat[0] += 1
                stat[1] += dt
                stat[2] += stack.pop()
                if stack:
                    stack[-1] += dt
            if count_nfev:
                self.nfev += int(getattr(out, "nfev", 0))
            return out

        return wrapper

    def __enter__(self) -> "Tracer":
        import scipy.optimize

        modules = [m for n, m in list(sys.modules.items()) if n == "bellgate" or n.startswith("bellgate.")]
        modules.append(scipy.optimize)
        for layer, name in TARGETS:
            target = _find(layer, name)
            if target is None:
                continue
            wrapper = self._wrap(f"{layer}.{name}", target)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is target:
                        self._patched.append((mod, attr, value))
                        setattr(mod, attr, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for mod, attr, value in reversed(self._patched):
            setattr(mod, attr, value)
        self._patched.clear()

    def metrics(self, ops: int, cards: int, reports: int, speed_factor: float) -> dict[str, tuple[float, str]]:
        """Per-operation figures for the traced functions plus derived ratios.

        Busy and self times are scaled to reference seconds by the traced
        loop's median speed factor (see speed.py).
        """
        out: dict[str, tuple[float, str]] = {}
        per = 1.0 / max(ops, 1)
        for key, (calls, busy, child) in self.stats.items():
            out[f"{key}.calls"] = (calls * per, "calls/op")
            out[f"{key}.busy_s"] = (busy * per * speed_factor, "s/op")
            if key in SELF_TIME:
                out[f"{key}.self_s"] = ((busy - child) * per * speed_factor, "s/op")
        if "calib.least_squares" in self.stats:
            lsq_calls = self.stats["calib.least_squares"][0]
            out["calib.least_squares.nfev"] = (self.nfev * per, "nfev/op")
            out["calib.starts_per_card"] = (lsq_calls / cards if cards else 0.0, "count")
        if "fidelity.directional_derivatives" in self.stats:
            dd_calls = self.stats["fidelity.directional_derivatives"][0]
            out["fidelity.derivatives_per_report"] = (dd_calls / reports if reports else 0.0, "count")
        return out
