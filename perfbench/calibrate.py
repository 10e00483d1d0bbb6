"""Reference-speed calibration for a shared host.

On a shared virtual machine the speed available to one process drifts by
up to 1.8x, on a scale of seconds to minutes, with other tenants' load.
Sampling more work within a run does not remove that, because a whole run
can sit in one slow or fast phase.  So while a run measures, an interval
timer interrupts it every INTERVAL_S to time fixed reference computations
("bursts"); the bursts' own time is taken out of every span they fall in.
Each span is then scaled by the ratio of a reference's nominal burst time to
the burst times measured around it: times are reported in seconds at the
reference speed.

The host does not slow all code alike.  Interpreter-bound code (generators,
bisection, the exact recursion) tracks the "python" burst, and the Monte
Carlo kernel's array work tracks the "numpy" burst; each workload declares
which of them match its solve phase.  The reference code is the benchmark's
own and imports nothing from the package, so a change to the package cannot
move it.
"""

from __future__ import annotations

import bisect
import math
import signal
import statistics
import time
from contextlib import contextmanager

import numpy as np

# Median burst seconds per kind on a quiet run of a 2-vCPU x86-64 VM at
# 2.1 GHz, Python 3.11, numpy 2.4.  They only fix the scale: scaled times
# read like raw times on that machine when it is quiet.
NOMINAL = {"python": 0.0040, "numpy": 0.0039}
# One pair of bursts (~8 ms) every INTERVAL_S costs ~4% of the run.
INTERVAL_S = 0.2
# A span is scaled by the bursts within WINDOW_S of it, and at least the
# NEAREST bursts on each side.
WINDOW_S = 0.5
NEAREST = 3


class Speed:
    """Timestamped bursts of fixed reference computations, taken on a timer."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._mask = rng.random((100, 2000)) < 0.1
        self._classes = rng.integers(0, 5, size=(100, 2000)).astype(np.int32)
        self._python()  # warm-up: first calls pay one-time allocation costs
        self._numpy()
        # kind -> (burst midpoints, burst seconds), in time order
        self.bursts: dict[str, tuple[list[float], list[float]]] = {kind: ([], []) for kind in NOMINAL}
        # Start and end of every pause the bursts made, and the pause seconds
        # before each start, to take the bursts out of the spans.
        self._pause_starts: list[float] = []
        self._pause_ends: list[float] = []
        self._paused_before: list[float] = [0.0]
        self._in_sample = False

    def _python(self):
        table: dict[int, int] = {}
        acc = 0
        for i in range(24000):
            acc += (i * i) % 7
            table[i % 997] = table.get(i % 997, 0) + 1
        return acc

    def _numpy(self):
        for _ in range(24):
            newly = (self._classes >= 2) & ~self._mask
            np.count_nonzero(newly)
            newly.sum(axis=1, dtype=np.int64)

    def sample(self, *_signal_args) -> None:
        if self._in_sample:  # the timer fired during a burst; skip this tick
            return
        self._in_sample = True
        start = time.perf_counter()
        for kind, fn in (("python", self._python), ("numpy", self._numpy)):
            t0 = time.perf_counter()
            fn()
            t1 = time.perf_counter()
            times, secs = self.bursts[kind]
            times.append((t0 + t1) / 2)
            secs.append(t1 - t0)
        end = time.perf_counter()
        self._pause_starts.append(start)
        self._pause_ends.append(end)
        self._paused_before.append(self._paused_before[-1] + end - start)
        self._in_sample = False

    @contextmanager
    def sampling(self):
        """Take bursts every INTERVAL_S while the block runs (main thread only)."""
        previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            self.sample()
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
            self.sample()

    def paused(self, start: float, end: float) -> float:
        """Seconds of bursts inside [start, end]; a burst never straddles a
        span boundary, since both run on the main thread."""
        lo = bisect.bisect_left(self._pause_starts, start)
        hi = bisect.bisect_right(self._pause_ends, end)
        return self._paused_before[hi] - self._paused_before[lo] if hi > lo else 0.0

    def factor(self, kind: str, start: float = -math.inf, end: float = math.inf) -> float:
        """Nominal over measured median burst time near [start, end] (whole run by default).

        Below 1 when the host ran slower than the reference; multiply a
        measured time by it to get seconds at the reference speed.
        """
        times, secs = self.bursts[kind]
        lo = bisect.bisect_left(times, start - WINDOW_S)
        hi = bisect.bisect_right(times, end + WINDOW_S)
        lo = min(lo, max(0, bisect.bisect_left(times, start) - NEAREST))
        hi = max(hi, bisect.bisect_right(times, end) + NEAREST)
        return NOMINAL[kind] / statistics.median(secs[lo:hi])
