"""A host-speed reference probe, interleaved with the measured ops.

The shared host drifts: the same op runs 10-30% slower for stretches
of seconds to minutes, in CPU time as much as in wall time (see
README.md).  The probe runs fixed pieces of work, independent of the
program under test, between ops: interpreter loops, a sort, small
numpy calls, random gathers from a buffer larger than the L2 cache and
asyncio task switches, the kinds of work the workloads mix.  An op's
*normalized* time is its wall time scaled by how much slower than the
reference times below the probes on either side of it ran.  A change
to the program cannot change the probe, so normalized times still move
with the program's speed but much less with the host's.
"""

from __future__ import annotations

import asyncio
import bisect
import statistics
import time
from typing import Callable

import numpy as np

#: Nominal seconds of each probe component on an unloaded host;
#: normalized times are "at this host speed".
REFERENCE_SECONDS = {
    "interpreter": 0.0018,
    "sort": 0.00095,
    "small_numpy": 0.00145,
    "gather": 0.0018,
    "asyncio": 0.0023,
}

#: Each component's time in a sample is the least of this many runs.
REPEATS = 2

#: Ops are bracketed by probe samples at least this far apart.
INTERVAL_SECONDS = 0.3


async def _switches(count: int) -> None:
    for _ in range(count):
        await asyncio.sleep(0)


async def _many_switches() -> None:
    await asyncio.gather(*(_switches(10) for _ in range(100)))


class HostProbe:
    """Samples the reference work and scales op times by it."""

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        values = rng.integers(0, 1 << 30, 120_000)
        small = rng.integers(0, 1 << 16, 64)
        buffer = rng.integers(0, 1 << 30, 1 << 20)
        positions = rng.integers(0, 1 << 20, 300_000)

        def interpreter() -> None:
            table: dict[int, int] = {}
            for index in range(15_000):
                table[index & 511] = table.get(index & 511, 0) + index

        def small_numpy() -> None:
            counts = small
            for _ in range(600):
                counts = np.bincount(counts & 63, minlength=64).cumsum()

        self._work: dict[str, Callable[[], object]] = {
            "interpreter": interpreter,
            "sort": lambda: np.sort(values),
            "small_numpy": small_numpy,
            "gather": lambda: buffer[positions].sum(),
            "asyncio": lambda: asyncio.run(_many_switches()),
        }
        self.times: list[float] = []
        self.slowdowns: list[float] = []

    def sample(self) -> None:
        """Record the host's slowdown against the reference times."""
        ratios = []
        for name, work in self._work.items():
            best = float("inf")
            for _ in range(REPEATS):
                start = time.perf_counter()
                work()
                best = min(best, time.perf_counter() - start)
            ratios.append(best / REFERENCE_SECONDS[name])
        self.times.append(time.perf_counter())
        self.slowdowns.append(statistics.mean(ratios))

    def due(self) -> bool:
        return time.perf_counter() - self.times[-1] >= INTERVAL_SECONDS

    def factor(self, start: float, end: float) -> float:
        """Reference over host speed around the interval [start, end].

        Averages the last sample finished before ``start`` and the
        first one finished after ``end``.
        """
        before = bisect.bisect_right(self.times, start) - 1
        after = bisect.bisect_left(self.times, end)
        around = [
            self.slowdowns[index]
            for index in (before, after)
            if 0 <= index < len(self.slowdowns)
        ]
        return 1.0 / statistics.mean(around)
