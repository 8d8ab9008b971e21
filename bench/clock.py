"""Time calibrated to the machine's speed at the moment.

The benchmark runs on shared machines.  On the 2-core one it was written on,
the same pure-Python loop took from 0.22 s to 0.49 s within one minute, and
CPU time drifted with wall time, so neither measures the program's work
steadily.  So a SIGALRM timer interrupts the worker every INTERVAL_S seconds
and times a fixed reference kernel.  Each stretch of work between two kernel
runs is scaled by REF_S / (the kernel's time right after it).  The sum is the
work's time on a machine where the kernel takes REF_S, which is about its
median on that machine; the kernel's own time is left out.
"""

from __future__ import annotations

import signal
import time

INTERVAL_S = 0.04
REF_S = 0.0015
KERNEL_STEPS = 5000


def kernel() -> dict:
    """Dict, tuple and integer work, like the program's inner loops."""
    table: dict = {}
    for i in range(KERNEL_STEPS):
        key = (i % 97, i % 89)
        table[key] = table.get(key, 0) + i * i
    return table


class CalibratedClock:
    def __init__(self):
        # (start, end, seconds per kernel run) per sample
        self.samples: list[tuple[float, float, float]] = []
        self._busy = False

    def sample(self, runs: int = 1) -> None:
        """Time `runs` kernel runs and keep their median.  A timer signal
        during a sample is dropped."""
        if self._busy:
            return
        self._busy = True
        try:
            times = []
            first = time.monotonic()
            for _ in range(runs):
                start = time.monotonic()
                kernel()
                times.append(time.monotonic() - start)
            self.samples.append((first, time.monotonic(), sorted(times)[runs // 2]))
        finally:
            self._busy = False

    def close(self) -> None:
        """Sample right after a measured interval.  One kernel run is too
        noisy for a short interval such as set-up, which may have no other
        sample, so this takes the median of five."""
        self.sample(runs=5)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, lambda *_: self.sample())
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)

    def seconds(self, t0: float, t1: float) -> float:
        """Calibrated seconds of the work between time.monotonic() readings t0
        and t1.  The caller runs close() after t1, so that the last stretch
        has a sample after it."""
        total, cursor = 0.0, t0
        for start, end, kernel_s in self.samples:
            if end <= t0:
                continue
            total += max(min(start, t1) - cursor, 0.0) * REF_S / kernel_s
            cursor = max(cursor, end)
            if start >= t1:
                return total
        raise ValueError("no kernel run after the interval's end")
