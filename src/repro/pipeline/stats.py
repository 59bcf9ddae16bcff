"""Statistics: counters, stall breakdowns, and MLP measurement."""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field


class MLPMeter:
    """Measures memory-level parallelism from miss intervals.

    Each demand line fill contributes a half-open interval
    ``[start, end)``.  MLP is the time-average number of simultaneously
    outstanding fills over the cycles during which *at least one* fill
    is outstanding — the definition behind Table 2's "D$ MLP" and
    "L2 MLP" columns.

    The fills live in one flat ``array('q')``, ``_fills``: the start
    and end cycle of each fill in turn (``start0, end0, start1, ...``).
    A meter thus holds no Python object per fill, and the result store
    (:mod:`repro.exec.store`) rebuilds one from raw bytes.
    """

    def __init__(self) -> None:
        self._fills = array("q")

    def add(self, start: int, end: int) -> None:
        if end > start:
            fills = self._fills
            fills.append(start)
            fills.append(end)

    @property
    def count(self) -> int:
        return len(self._fills) // 2

    def average(self) -> float:
        """Time-averaged outstanding fills while >= 1 is outstanding.

        Returns 1.0 when there were misses but no overlap, and 0.0 when
        there were no misses at all (callers typically display "-").
        """
        fills = self._fills
        if not fills:
            return 0.0
        events = [(start, 1) for start in fills[::2]]
        events += [(end, -1) for end in fills[1::2]]
        events.sort()
        active_time = 0
        weighted_time = 0
        depth = 0
        prev = events[0][0]
        for time, delta in events:
            if depth > 0 and time > prev:
                span = time - prev
                active_time += span
                weighted_time += span * depth
            prev = time
            depth += delta
        if active_time == 0:
            return 0.0
        return weighted_time / active_time


@dataclass
class StallBreakdown:
    """Issue-stall cycles by first blocking reason (diagnostics)."""

    src_wait: int = 0
    waw_wait: int = 0
    port: int = 0
    store_buffer_full: int = 0
    mshr_full: int = 0
    frontend: int = 0
    slice_buffer_full: int = 0
    poisoned_store_addr: int = 0

    def total(self) -> int:
        return (self.src_wait + self.waw_wait + self.port
                + self.store_buffer_full + self.mshr_full + self.frontend
                + self.slice_buffer_full + self.poisoned_store_addr)


#: Every integer counter a :class:`PhaseStats` bucket carries.  Each is
#: mirrored from the matching :class:`CoreStats` aggregate at the same
#: increment site, so summing a counter over a run's buckets reproduces
#: the aggregate *exactly* — the conservation law
#: ``tests/stats/test_phase_conservation.py`` pins.
PHASE_COUNTERS = (
    "cycles", "instructions", "loads", "stores", "branches",
    "l1d_misses", "l2_misses", "secondary_misses",
    "advance_instructions", "rally_instructions",
)


@dataclass
class PhaseStats:
    """Attribution bucket for one phase of a composed workload.

    Cycles are charged as spans between phase transitions observed at
    retirement: when a committing instruction's phase differs from the
    current one, the elapsed span goes to the outgoing phase (the run's
    tail span is settled at completion).  Event counters (commits,
    misses, advance/rally work) are charged to the phase of the
    instruction that caused them.  Attribution is observation-only:
    it never feeds timing decisions.
    """

    name: str
    cycles: int = 0
    instructions: int = 0
    loads: int = 0
    stores: int = 0
    branches: int = 0
    l1d_misses: int = 0
    l2_misses: int = 0
    secondary_misses: int = 0
    advance_instructions: int = 0
    rally_instructions: int = 0

    @classmethod
    def from_aggregate(cls, name: str, stats: "CoreStats") -> "PhaseStats":
        """The single-phase bucket: the whole run's aggregates.

        Single-region programs skip per-commit attribution entirely —
        one bucket over the whole program *is* the aggregate, so it is
        synthesised here at run end for zero hot-path cost.
        """
        return cls(name=name,
                   **{field: getattr(stats, field)
                      for field in PHASE_COUNTERS})

    @property
    def ipc(self) -> float:
        return self.instructions / self.cycles if self.cycles else 0.0


@dataclass
class CoreStats:
    """Everything a simulation run records."""

    cycles: int = 0
    instructions: int = 0
    loads: int = 0
    stores: int = 0
    branches: int = 0
    branch_mispredicts: int = 0
    l1d_misses: int = 0
    l2_misses: int = 0
    secondary_misses: int = 0
    # Latency-tolerance machinery:
    advance_entries: int = 0          # transitions into advance mode
    advance_instructions: int = 0     # instructions processed while advancing
    rally_passes: int = 0
    rally_instructions: int = 0       # re-executed slice/replay instructions
    slice_captures: int = 0           # instructions diverted into the slice buffer
    squashes: int = 0                 # checkpoint restores
    simple_runahead_entries: int = 0  # fallback-mode transitions
    store_forward_hits: int = 0
    store_forward_hops: int = 0       # excess chained store-buffer hops
    stalls: StallBreakdown = field(default_factory=StallBreakdown)
    d_mlp: MLPMeter = field(default_factory=MLPMeter)
    l2_mlp: MLPMeter = field(default_factory=MLPMeter)

    @property
    def ipc(self) -> float:
        return self.instructions / self.cycles if self.cycles else 0.0

    def misses_per_ki(self) -> tuple[float, float]:
        """(D$ misses, L2 misses) per 1000 committed instructions."""
        if not self.instructions:
            return (0.0, 0.0)
        scale = 1000.0 / self.instructions
        return (self.l1d_misses * scale, self.l2_misses * scale)

    def rallies_per_ki(self) -> float:
        if not self.instructions:
            return 0.0
        return self.rally_instructions * 1000.0 / self.instructions

    def hops_per_load(self) -> float:
        if not self.loads:
            return 0.0
        return self.store_forward_hops / self.loads
