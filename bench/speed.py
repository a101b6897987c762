"""Machine speed, measured next to every job, so that times can be
scaled to a fixed reference speed.

A shared machine drifts between speed states: the same Python code runs
up to about 1.8 times slower in a slow state, states flip within a
second, and the mix of states can stay slow or fast for longer than a
whole run.  No repetition inside a run removes that.  The clock
therefore times a small fixed piece of pure-Python work, independent of
the package, right before and right after every job, and scales the
job's wall time by ``REFERENCE_S`` over the mean of those two readings:
the result is the time the job would take on a machine where one
reading takes ``REFERENCE_S``.  A change to the package moves the job
times and not the probe, so it shows in full.
"""

from __future__ import annotations

import gc
from time import perf_counter

# A little less than the fastest readings seen on a 2-vCPU x86-64 VM
# under CPython 3.11.  Only ratios to it matter; it keeps scaled times
# near real seconds in that VM's fast state.
REFERENCE_S = 0.00017
READS = 2          # a reading is the faster of this many back-to-back timings

_N = 3000
_DEGREE = 12
_STRIDE = 90
# Adjacency sets of a fixed pseudo-random graph, in the style of the
# package's ``Graph``: the probe runs set intersections, dict updates and
# integer arithmetic, the operations the solvers spend time on.  A
# reading visits every ninetieth vertex and its neighbours, about 400
# set intersections, short enough to sit in the same speed state as the
# job next to it.  The first timing of a reading runs with whatever the
# job left in the caches, the second runs warm; taking the faster keeps
# the job's memory footprint out of the reading.
_ADJ = [
    {(u * 7919 + i * 104729 + i * i * 31) % _N for i in range(1, _DEGREE + 1)} - {u}
    for u in range(_N)
]


def _work() -> int:
    seen: dict[int, int] = {}
    total = 0
    for u in range(0, _N, _STRIDE):
        for v in _ADJ[u]:
            common = _ADJ[u] & _ADJ[v]
            seen[v] = seen.get(v, 0) + len(common)
            total += (u * v + len(common)) % 13
    return total + len(seen)


def read() -> float:
    """Seconds for one unit of reference work, fastest of ``READS``.
    The collector is off meanwhile, so the size of the heap the jobs
    left behind does not change the reading."""
    best = float("inf")
    gc.disable()
    try:
        for _ in range(READS):
            start = perf_counter()
            _work()
            best = min(best, perf_counter() - start)
    finally:
        gc.enable()
    return best


class Clock:
    """Time scaled to reference speed.

    ``tick`` reads the machine and returns the scaled time since the
    clock started: the wall time between two ticks is multiplied by
    ``REFERENCE_S`` over the mean of the readings taken at those two
    ticks.  The readings' own time is left out.
    """

    def __init__(self) -> None:
        read()  # warm up
        self._reading = read()
        self._last = perf_counter()
        self._total = 0.0

    def wall(self, scaled: float) -> float:
        """Wall seconds that ``scaled`` seconds at reference speed take
        at the speed of the last reading."""
        return scaled * self._reading / REFERENCE_S

    def tick(self) -> float:
        wall = perf_counter() - self._last
        reading = read()
        self._total += wall * 2 * REFERENCE_S / (self._reading + reading)
        self._reading = reading
        self._last = perf_counter()
        return self._total
