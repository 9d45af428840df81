"""Host-speed calibration for the benchmark's timings.

On a host whose cores are shared with other work, speed can flip
between states far apart within seconds (about 1.7x on a 2-core shared
cloud VM). A run of tens of seconds then mixes the states in a different
proportion each time, which swamps the differences a benchmark must see.

A Speedometer times a fixed pure-Python kernel, which shares no code
with hierdispatch, every INTERVAL_S seconds during a run. Its speed
factor is the kernel's recent time over REFERENCE_S. Dividing a host
time by the factor taken when it was measured gives the time at the
reference speed: the speed at which the kernel takes REFERENCE_S.
"""

from __future__ import annotations

import heapq
import math
import statistics
import time
from collections import deque

REFERENCE_S = 0.0015
INTERVAL_S = 0.05


class _Unit:
    __slots__ = ("id", "x", "y", "busy_until")

    def __init__(self, i):
        self.id = i
        self.x = i * 0.7 % 5
        self.y = i * 1.3 % 5
        self.busy_until = 0


def kernel(events: int = 300) -> float:
    """A small dispatch-like loop: a heap, slotted objects, min with a key."""
    units = [_Unit(i) for i in range(8)]
    heap = [((i * 7919) % 10007, i) for i in range(events)]
    heapq.heapify(heap)
    cost = 0.0
    while heap:
        t, i = heapq.heappop(heap)
        tx, ty = (i % 10) * 0.5, (i % 7) * 0.5
        free = [u for u in units if u.busy_until <= t]
        if free:
            best = min(free, key=lambda u: (math.hypot(u.x - tx, u.y - ty), u.id))
            best.busy_until = t + 30
            cost += math.hypot(best.x - tx, best.y - ty)
    return cost


class Speedometer:
    """Samples the kernel at most every `interval` host seconds.

    Between `begin()` and `end()` it also converts the host time between
    samples to reference speed, each interval at the mean speed of the
    samples that bound it, and adds it to `reference_s`.
    """

    def __init__(self, interval: float = INTERVAL_S):
        self.interval = interval
        self.samples: list[float] = []
        self.recent: deque = deque(maxlen=3)
        self.reference_s = 0.0
        self._next = 0.0
        self._mark = None  # end of the last sample, while converting

    def tick(self, force: bool = False) -> None:
        clock = time.perf_counter
        if not force and clock() < self._next:
            return
        start = clock()
        kernel()
        end = clock()
        took = end - start
        if self._mark is not None:
            factor = (took + self.recent[-1]) / 2 / REFERENCE_S
            self.reference_s += (start - self._mark) / factor
            self._mark = end
        self.samples.append(took)
        self.recent.append(took)
        self._next = clock() + self.interval

    def begin(self) -> None:
        self.tick(force=True)
        self._mark = time.perf_counter()

    def end(self) -> None:
        self.tick(force=True)
        self._mark = None

    def factor(self) -> float:
        """The current speed factor: > 1 when slower than the reference."""
        return statistics.median(self.recent) / REFERENCE_S

    def mean_factor(self) -> float:
        """The speed factor averaged over every sample."""
        return statistics.fmean(self.samples) / REFERENCE_S
