"""Machine-speed reference for the benchmark's times.

The shared machines this benchmark runs on change speed by up to about
1.6x over seconds to minutes, as other tenants load the cores.  A fixed
pure-Python loop, independent of the program, is timed between ops;
each op's wall time is then scaled by ``REFERENCE_S / c``, where ``c``
is the mean per-loop time just before and just after the op.  A scaled
time is the op's wall time at the speed at which the loop takes
``REFERENCE_S``.  A change in the program moves scaled times as it
moves wall times; a change in machine load mostly does not.

A workload whose op runs on a thread pool is scaled by the loop run on
as many threads: a load on the other core slows hand-offs of the
interpreter lock far more than it slows one thread.
"""

from __future__ import annotations

import bisect
import time
from concurrent.futures import ThreadPoolExecutor

# Seconds the loop takes at the reference speed.  A constant: it sets
# the unit of every scaled time.  It is about the loop's time on the
# 2-core x86-64 Xeon the benchmark was tuned on, when no other tenant
# loads its cores, so scaled times read close to wall times there.
REFERENCE_S = 0.0015
# Wall seconds between two timings of one loop; ops in between share them.
EVERY_S = 0.1


def calibration_loop() -> int:
    """Dict, tuple, generator and sort work, like the program's own."""
    index: dict[tuple[int, int, int], int] = {}
    total = 0
    for i in range(1000):
        key = (i, i * 7 % 13, i % 5)
        index[key] = len(index)
        total += sum(x for x in key if x in index or x % 2)
    ordered = sorted(index, key=lambda k: (k[1], -k[0]))
    return total + len(ordered)


def _loops(count: int) -> None:
    for _ in range(count):
        calibration_loop()


class SpeedClock:
    """Loop timings, stamped with the time each one ended."""

    def __init__(self, threads: int = 1) -> None:
        self.threads = threads
        # On several threads, each runs the loop long enough to pass the
        # interpreter's switch interval, so that lock hand-offs are timed.
        self.loops = 1 if threads == 1 else 3
        self.stamps: list[float] = []
        self.loop_s: list[float] = []  # seconds per loop

    def tick(self, force: bool = False) -> None:
        """Time the loop if enough time has passed since the last timing."""
        every = EVERY_S * self.loops * self.threads
        if not force and self.stamps and time.perf_counter() - self.stamps[-1] < every:
            return
        t0 = time.perf_counter()
        if self.threads == 1:
            _loops(self.loops)
        else:
            with ThreadPoolExecutor(max_workers=self.threads) as pool:
                for future in [pool.submit(_loops, self.loops) for _ in range(self.threads)]:
                    future.result()
        t1 = time.perf_counter()
        self.stamps.append(t1)
        self.loop_s.append((t1 - t0) / (self.loops * self.threads))

    def scale(self, start: float, end: float) -> float:
        """Factor that takes a wall interval to the reference speed.
        Needs one timing ending at or before ``start`` and one ending at
        or after ``end``."""
        before = bisect.bisect_right(self.stamps, start) - 1
        after = bisect.bisect_left(self.stamps, end)
        return 2 * REFERENCE_S / (self.loop_s[before] + self.loop_s[after])

    def scaled(self, start: float, end: float) -> float:
        return (end - start) * self.scale(start, end)
