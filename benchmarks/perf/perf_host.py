"""Host speed: the benchmark's fixed yardstick for a shared, drifting host.

On a shared host the speed of the same code changes with what the
neighbours run.  On the 2-vCPU VM this benchmark was built on, one
:func:`sample` took either about 5.5-6 ms or about 11-12 ms, and the
host stayed in one state for seconds at a time, which swamps
the differences the benchmark exists to see.  Every timed measurement
is therefore bracketed by passes of :func:`yardstick`, a fixed
pure-Python loop (a toy set-associative cache over an LCG address
stream: object allocation, attribute access, list and dict traffic,
like the simulator's hot paths).  The loop is part of the benchmark, so
no change to the simulator can change its speed.  A measurement is
divided by its :func:`slowness`.

The yardstick reacts more strongly to the slow state than the
simulator does, so a full correction would over-correct; the exponents
below scale it to each kind of measurement.
"""

from __future__ import annotations

import gc
import statistics
from collections import deque
from time import perf_counter

#: Best time of one :func:`sample` on the reference host (2 vCPU x86-64
#: VM, Python 3.11, the fast state).
NOMINAL_S = 0.0050

#: How strongly host time follows the yardstick: code slows by the
#: yardstick's slowdown to this power.  Measured on the reference host,
#: where the slow state slowed the yardstick 1.8-1.9x.  Simulation
#: slowed 1.47-1.53x (per-cell time ratios between repetitions regressed
#: on their bracket ratios: slope 0.60-0.71).  Store replays, which are
#: JSON decoding and object building like the yardstick, slowed
#: 1.65-1.71x.  Both exponents brought slow-state medians to within a
#: few percent of a quiet host's.
SIM_EXPONENT = 0.7
REPLAY_EXPONENT = 0.85


class _Line:
    __slots__ = ("tag", "dirty")

    def __init__(self, tag: int) -> None:
        self.tag = tag
        self.dirty = False


class _ToyCache:
    __slots__ = ("sets", "ways", "hits", "misses", "fills")

    def __init__(self, sets: int = 64, ways: int = 4) -> None:
        self.sets = [[] for _ in range(sets)]
        self.ways = ways
        self.hits = 0
        self.misses = 0
        self.fills = deque()

    def access(self, addr: int) -> int:
        line = addr >> 6
        ways = self.sets[line % len(self.sets)]
        for i, entry in enumerate(ways):
            if entry.tag == line:
                ways.append(ways.pop(i))
                self.hits += 1
                return 3
        self.misses += 1
        if len(ways) >= self.ways:
            ways.pop(0)
        ways.append(_Line(line))
        self.fills.append(line)
        if len(self.fills) > 8:
            self.fills.popleft()
        return 20


def yardstick(accesses: int = 6000) -> int:
    """The fixed loop; returns its (deterministic) total latency."""
    cache = _ToyCache()
    x = 12345
    total = 0
    histogram: dict[int, int] = {}
    for i in range(accesses):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        latency = cache.access((x & 0xFFFF) if i & 3 else (x & 0x3FFFFF))
        total += latency
        histogram[latency] = histogram.get(latency, 0) + 1
    return total


def sample() -> float:
    """Seconds of one yardstick pass, with garbage collection held off
    (a collection would walk whatever heap the caller holds)."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        yardstick()
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class Brackets:
    """Yardstick samples between consecutive measurements: each sample
    closes one measurement's bracket and opens the next one's."""

    def __init__(self) -> None:
        self._last = sample()

    def next(self) -> list[float]:
        """The bracket of the measurement that just ended."""
        pair = [self._last, sample()]
        self._last = pair[1]
        return pair


def slowness(samples: list[float], exponent: float = SIM_EXPONENT) -> float:
    """Host slowness over a measurement, relative to the nominal host,
    from the yardstick samples bracketing it (their median: one sample
    can be hit by an interrupt)."""
    return (statistics.median(samples) / NOMINAL_S) ** exponent
