"""Machine-speed calibration for timings on a shared machine.

On a machine shared with other tenants the speed of a core can change
by a factor of two from one second to the next, which moves whole runs.
Every time the benchmark reports is therefore rescaled to a fixed
reference speed.  A Sampler thread runs a short interpreter kernel every
INTERVAL_S on the core the work is pinned to; a wall-clock interval is
multiplied by ``REF_S / k``, with ``k`` the median kernel time sampled
during that interval (widened to at least WINDOW_S).  Where the kernel
takes ``REF_S`` the figures are plain wall-clock seconds.

The kernel is a small copy of the package's hot path (Kronecker
assembly, a 4x4 Hermitian eigendecomposition, exponentiation and
interpreter work), so it slows down with the machine the way the
measured work does; it never calls bellgate, so a change to the
package cannot move it.
"""

from __future__ import annotations

import bisect
import math
import statistics
import threading
import time

import numpy as np

#: kernel time that defines the reference speed (seconds)
REF_S = 0.0007
#: pause between two kernel runs (seconds)
INTERVAL_S = 0.02
#: shortest stretch of samples used to calibrate one interval (seconds)
WINDOW_S = 0.25

_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Z = np.array([[1, 0], [0, -1]], dtype=complex)
_I = np.eye(2, dtype=complex)


def _kernel() -> float:
    acc = 0.0
    for i in range(3):
        h = np.kron(_X, _X) * (1.0 + i * 1e-3) + np.kron(_Z, _Z) - 0.3 * np.kron(_Z, _I)
        w, v = np.linalg.eigh(h)
        u = (v * np.exp(-1j * w)) @ v.conj().T
        acc += abs(u[0, 0]) + sum(math.sin(k * 0.1) for k in range(20))
    return acc


class Sampler:
    """Background thread timing the kernel while the measured work runs."""

    def __init__(self):
        self._times: list[float] = []
        self._kernel_s: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        while not self._stop.wait(INTERVAL_S):
            t0 = time.perf_counter()
            _kernel()
            t1 = time.perf_counter()
            self._times.append(0.5 * (t0 + t1))
            self._kernel_s.append(t1 - t0)

    def __enter__(self) -> "Sampler":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def factor(self, t0: float, t1: float) -> float:
        """Scale from wall-clock to reference seconds for the interval [t0, t1]."""
        half = max(0.5 * (t1 - t0), 0.5 * WINDOW_S)
        mid = 0.5 * (t0 + t1)
        times = list(self._times)
        lo = bisect.bisect_left(times, mid - half)
        hi = bisect.bisect_right(times, mid + half)
        window = self._kernel_s[lo:hi] or self._kernel_s[-8:]
        if not window:
            raise RuntimeError("no speed samples were taken")
        return REF_S / statistics.median(window)
