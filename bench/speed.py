"""Scaling measured times to one reference speed of the machine.

On a shared two-core machine the speed of the same Python code swings by
a factor of 1.5 to 2.5 for seconds to minutes at a time, in CPU time as
much as in wall time, because of load the benchmark cannot see, and a
tight arithmetic loop slows less than the program does.  So the
benchmark times a fixed reference loop of the program's kind of work
(small tuples, dicts, short-lived objects, big integers) next to the
work it measures and
reports each time as ``measured * REFERENCE_S / reference_loop_time``,
the loop time being the median of the loop's nearest timings:
the time the work would have taken had the reference loop taken
REFERENCE_S, which is about what it takes here when the machine is
quiet.  The loop is the benchmark's own and touches no code of the
program, so a change to the program cannot move it.
"""

from __future__ import annotations

import bisect
import gc
import statistics
import time

#: Seconds the reference loop takes on a quiet machine (Python 3.11,
#: 2 cores); the unit every reported time is scaled to.
REFERENCE_S = 0.0007

#: Seconds of measured work between two timings of the reference loop.
EVERY_S = 0.02

#: How many timings of the loop nearest to a measurement scale it.
NEAREST = 15


class _Pair:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a, self.b = a, b


def reference_loop() -> int:
    """Work of the program's kind: small tuples sorted and hashed into a
    dict, short-lived objects in lists, attribute reads, and products of
    big integers."""
    acc = 0
    table: dict = {}
    for i in range(300):
        key = tuple(sorted((i % 7, i % 5, i % 3)))
        table[key] = table.get(key, 0) + 1
        pairs = [_Pair(i, j) for j in range(4)]
        acc += sum(p.a * p.b for p in pairs)
    x = 7 ** 1500
    for _ in range(3):
        acc += (x * x) & 1
    return acc


def time_reference() -> float:
    """Seconds for one pass of the loop, with the collector held off so
    that a collection the program has made due does not land in it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        reference_loop()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class Speedometer:
    """Times the reference loop between pieces of measured work and, when
    the run is over, scales each measured time by the median of the
    NEAREST loop times around it.  One pass of the loop is short and
    noisy; the median of its nearest passes follows the machine's speed
    over the seconds around the measurement."""

    def __init__(self):
        self.ticks: list[float] = []  # when each pass of the loop ended
        self.samples: list[float] = []  # how long it took
        self._measured: list[tuple[object, object, float, float]] = []
        self.tick()

    def tick(self) -> None:
        loop = time_reference()
        self.ticks.append(time.perf_counter())
        self.samples.append(loop)

    def due(self) -> None:
        """Tick unless the loop was timed less than EVERY_S ago."""
        if time.perf_counter() - self.ticks[-1] >= EVERY_S:
            self.tick()

    def scale_later(self, row, key, start: float, end: float) -> None:
        """Scale ``row[key]``, measured from ``start`` to ``end``, at finish()."""
        self._measured.append((row, key, start, end))

    def finish(self) -> None:
        for row, key, start, end in self._measured:
            row[key] *= REFERENCE_S / self.local_loop_time(start, end)
        self._measured.clear()

    def local_loop_time(self, start: float, end: float) -> float:
        """Median loop time over the NEAREST passes to [start, end]."""
        mid = bisect.bisect_left(self.ticks, (start + end) / 2)
        lo, hi = mid, mid
        while hi - lo < NEAREST and (lo > 0 or hi < len(self.ticks)):
            if lo > 0 and (hi == len(self.ticks)
                           or start - self.ticks[lo - 1] <= self.ticks[hi] - end):
                lo -= 1
            else:
                hi += 1
        return statistics.median(self.samples[lo:hi])
