"""Machine-speed probes that put timings from a shared machine on one scale.

On a small shared machine the speed available to one process drifts by up
to 2x over tens of seconds, so raw wall times of identical work spread far
more than any useful regression bound.  A probe is a fixed kernel that
never changes with the program: a pure-Python loop for interpreter-bound
work and a small NumPy kernel (log, matmul, threshold masks) for array-bound
work.  A sample is scaled by ``NOMINAL_S[kind] / p``, so reported times are
seconds on a machine that runs the probe in its nominal time.  For a short
repeated sample (tens of milliseconds to a second) ``p`` is the mean of the
probes just before and just after it.  A one-shot sample (set-up, a cold
command, a scan) lasts longer than the probes around it can follow, so
``Ticks`` interrupts it every 20 ms to run a short Python probe; ``p`` is
the median tick, and the ticks' own time is taken off the sample.  The raw
wall times are reported next to the scaled ones.
"""
from __future__ import annotations

import functools
import gc
import signal
import statistics
import time

#: Typical probe times on the shared 2-core virtual machine the benchmark
#: was tuned on; they only fix the scale.
#: A tick is a short Python probe run inside a one-shot sample.
NOMINAL_S = {"python": 0.009, "numpy": 0.005, "tick": 0.0006}


TICK_ITERATIONS = 1_000
TICK_INTERVAL_S = 0.02


def _python_kernel(iterations: int = 20_000) -> None:
    table: dict = {}
    for i in range(iterations):
        key = (i & 255, str(i & 63))
        table[key] = table.get(key, 0) + i * i
    "".join(str(v % 10) for v in table.values())


@functools.cache
def _numpy_inputs():
    import numpy as np

    x = np.random.default_rng(0).random((2000, 24)) + 0.01
    g = np.random.default_rng(1).random((24, 60))
    return np, x, g


def _numpy_kernel() -> None:
    np, x, g = _numpy_inputs()
    for _ in range(5):
        v = (-x * np.log(x)) @ g
        (v >= v.max(axis=1)[:, None] - 1e-12).sum(axis=0)


_KERNELS = {"python": _python_kernel, "numpy": _numpy_kernel}


def _timed(kernel, *args) -> float:
    """Seconds one kernel run takes, with the garbage collector off so that the
    probe's allocations do not pay for collecting the program's objects."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t = time.perf_counter()
        kernel(*args)
        return time.perf_counter() - t
    finally:
        if enabled:
            gc.enable()


def measure(kind: str, runs: int = 3) -> float:
    """Median time of ``runs`` runs of the probe kernel, in seconds."""
    return sorted(_timed(_KERNELS[kind]) for _ in range(runs))[runs // 2]


def scale(kind: str, before: float, after: float) -> float:
    """Factor that turns a wall time measured between two probes into nominal seconds."""
    return NOMINAL_S[kind] / ((before + after) / 2.0)


class Ticks:
    """Runs a short Python probe on SIGALRM every ``TICK_INTERVAL_S`` seconds.

    Signal handlers run in the main thread between bytecodes, so the ticks
    interleave with a single-threaded sample and see the speed it gets.
    """

    def __init__(self) -> None:
        self.times: list[float] = []
        self.spent = 0.0
        self._previous = None

    def _tick(self, signum, frame) -> None:
        t = time.perf_counter()
        self.times.append(_timed(_python_kernel, TICK_ITERATIONS))
        self.spent += time.perf_counter() - t

    def start(self) -> "Ticks":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_INTERVAL_S, TICK_INTERVAL_S)
        return self

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def scale(self) -> float:
        """Nominal-seconds factor from the median tick (a full probe if none ran)."""
        if not self.times:
            return NOMINAL_S["python"] / measure("python")
        return NOMINAL_S["tick"] / statistics.median(self.times)
