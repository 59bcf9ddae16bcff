"""The assembled memory hierarchy (Table 1 of the paper).

Two-level write-back hierarchy: 32 KB 4-way L1I and L1D (64-byte lines,
8-entry D$ victim buffer), a 1 MB 8-way unified L2 (128-byte lines,
4-entry victim buffer, 20-cycle hit), 64 data MSHRs, 8x8-line stream
buffers, and a 400-cycle DRAM behind a bandwidth-limited bus.

The hierarchy is a *timing* model: every access mutates tag state
immediately and returns the cycle at which data becomes usable; in-flight
fills are represented by MSHRs, so younger accesses to a pending line
merge rather than re-issue.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cache import Cache, CacheConfig
from .main_memory import MainMemory
from .mshr import MSHR, MSHRFile
from .prefetch import StreamPrefetcher
from .victim import VictimBuffer

#: Levels an access can be served from.
L1 = "l1"
VICTIM = "victim"
PENDING = "mshr"  # secondary miss merged into an in-flight fill
L2 = "l2"
STREAM = "stream"
MEMORY = "mem"
STALL = "stall"  # no MSHR free; the access must retry

#: Shared empty miss-return list for the (dominant) cycles where no fill
#: completes.  Callers treat retire results as read-only.
NO_MSHRS: list = []


@dataclass(frozen=True)
class HierarchyConfig:
    """Geometry of the whole hierarchy."""

    l1i: CacheConfig
    l1d: CacheConfig
    l2: CacheConfig
    l1d_victim_entries: int = 8
    l2_victim_entries: int = 4
    mshr_entries: int = 64
    ifetch_mshr_entries: int = 8
    memory_latency: int = 400
    memory_chunk_cycles: int = 4
    memory_chunk_bytes: int = 16
    stream_buffers: int = 8
    stream_depth: int = 8

    @staticmethod
    def hpca09(l2_hit_latency: int = 20, stream_buffers: int = 8) -> "HierarchyConfig":
        """The paper's Table 1 configuration (L2 latency varies in Fig. 6)."""
        return HierarchyConfig(
            l1i=CacheConfig("l1i", 32 * 1024, 4, 64, 3),
            l1d=CacheConfig("l1d", 32 * 1024, 4, 64, 3),
            l2=CacheConfig("l2", 1024 * 1024, 8, 128, l2_hit_latency),
            stream_buffers=stream_buffers,
        )


@dataclass(slots=True)
class MemResult:
    """Outcome of one hierarchy access.

    ``ready_cycle`` is when the data is usable by the pipeline.
    ``level`` says where the access was served from.  ``l1_miss`` and
    ``l2_miss`` flag *demand* misses (merges into pending fills count as
    L1 misses but not as fresh L2 misses).  ``mshr`` is the in-flight
    fill the access created or merged into, if any.
    """

    ready_cycle: int
    level: str
    line_addr: int
    l1_miss: bool = False
    l2_miss: bool = False
    mshr: MSHR | None = None
    new_fill: bool = False

    @property
    def stalled(self) -> bool:
        return self.level == STALL


class MemoryHierarchy:
    """L1I + L1D + unified L2 + stream buffers + DRAM."""

    def __init__(self, config: HierarchyConfig | None = None) -> None:
        self.config = config if config is not None else HierarchyConfig.hpca09()
        cfg = self.config
        self.l1i = Cache(cfg.l1i)
        self.l1d = Cache(cfg.l1d)
        self.l2 = Cache(cfg.l2)
        self.l1d_victims = VictimBuffer(cfg.l1d_victim_entries)
        self.l2_victims = VictimBuffer(cfg.l2_victim_entries)
        self.memory = MainMemory(
            latency=cfg.memory_latency,
            chunk_cycles=cfg.memory_chunk_cycles,
            chunk_bytes=cfg.memory_chunk_bytes,
            line_bytes=cfg.l2.line_bytes,
        )
        self.prefetcher = StreamPrefetcher(
            self.memory, num_buffers=cfg.stream_buffers, depth=cfg.stream_depth
        )
        self.mshrs = MSHRFile(cfg.mshr_entries)
        self.ifetch_mshrs = MSHRFile(cfg.ifetch_mshr_entries)
        # Hot-path scalars (data_access/fetch_access run per issue attempt).
        self._l1d_line_bytes = cfg.l1d.line_bytes
        self._l1i_line_bytes = cfg.l1i.line_bytes
        self._l2_line_bytes = cfg.l2.line_bytes
        self._l1d_lat = cfg.l1d.hit_latency
        self._l1i_lat = cfg.l1i.hit_latency
        self._l2_lat = cfg.l2.hit_latency
        # L1 lines per L2 line, one ratio per L1: inclusion must drop
        # each L1's own sub-lines of an evicted L2 line.
        self._l1d_per_l2 = cfg.l2.line_bytes // cfg.l1d.line_bytes
        self._l1i_per_l2 = cfg.l2.line_bytes // cfg.l1i.line_bytes

    # ------------------------------------------------------------------
    # data side
    # ------------------------------------------------------------------
    def data_access(self, addr: int, cycle: int, is_store: bool = False) -> MemResult:
        """Access the data side; returns timing plus miss classification."""
        line = addr // self._l1d_line_bytes
        lat = self._l1d_lat

        mshrs = self.mshrs
        pending = mshrs._pending.get(line) if mshrs._pending else None
        if pending is not None and pending.ready_cycle > cycle:
            # Secondary miss: merges into the in-flight fill.  Cores
            # count it apart from fresh misses (Table 2 counts line fills).
            if is_store:
                self.l1d.mark_dirty(line)
            ready = pending.ready_cycle
            hit_ready = cycle + lat
            return MemResult(
                ready_cycle=hit_ready if hit_ready > ready else ready,
                level=PENDING,
                line_addr=line,
                l1_miss=True,
                mshr=pending,
            )

        if self.l1d.lookup(line):
            if is_store:
                self.l1d.mark_dirty(line)
            return MemResult(cycle + lat, L1, line)

        swapped = self.l1d_victims.extract(line)
        if swapped is not None:
            self._install_l1d(line, dirty=swapped[1] or is_store, cycle=cycle)
            return MemResult(cycle + lat + 1, VICTIM, line, l1_miss=True)

        # L1 and victim missed: go to L2 (and below).  An MSHR is needed
        # for the L1 fill; if none is free the access must retry.
        if mshrs.full:
            return MemResult(cycle + 1, STALL, line)

        l2_line = addr // self._l2_line_bytes
        l2_lat = self._l2_lat

        if self.l2.lookup(l2_line):
            ready = cycle + lat + l2_lat
            level = L2
            l2_miss = False
        else:
            swapped_l2 = self.l2_victims.extract(l2_line)
            if swapped_l2 is not None:
                self._install_l2(l2_line, dirty=swapped_l2[1], cycle=cycle)
                ready = cycle + lat + l2_lat + 1
                level = L2
                l2_miss = False
            else:
                l2_miss = True
                stream_ready = self.prefetcher.lookup(l2_line, cycle)
                if stream_ready is not None:
                    ready = max(cycle + lat + l2_lat, stream_ready)
                    level = STREAM
                else:
                    # Demand fill first, then train a new stream behind it.
                    ready = max(cycle + lat, self.memory.read_line(cycle))
                    self.prefetcher.train(l2_line, cycle)
                    level = MEMORY
                self._install_l2(l2_line, dirty=False, cycle=cycle)

        self._install_l1d(line, dirty=is_store, cycle=cycle)
        mshr = mshrs.allocate(line, ready, is_l2=l2_miss)
        return MemResult(ready, level, line, l1_miss=True, l2_miss=l2_miss,
                         mshr=mshr, new_fill=True)

    def data_hit_cycle(self, addr: int, cycle: int,
                       is_store: bool = False) -> int | None:
        """Fast path for the dominant L1-hit case; None → take the full
        :meth:`data_access` walk.

        Identical to data_access on the hit arm: same MRU promotion,
        same dirty marking, same ready cycle.  On any other arm — a live
        pending fill on the line, or an L1 tag miss — it changes
        *nothing* (a tag miss in ``lookup`` has no side effects), so
        data_access then replays the access from scratch.
        """
        line = addr // self._l1d_line_bytes
        mshrs = self.mshrs
        if mshrs._pending:
            pending = mshrs._pending.get(line)
            if pending is not None and pending.ready_cycle > cycle:
                return None
        if not self.l1d.lookup(line):
            return None
        if is_store:
            self.l1d.mark_dirty(line)
        return cycle + self._l1d_lat

    # ------------------------------------------------------------------
    # instruction side
    # ------------------------------------------------------------------
    def fetch_access(self, pc: int, cycle: int) -> MemResult:
        """Access the instruction side (L1I backed by the unified L2)."""
        line = pc // self._l1i_line_bytes
        lat = self._l1i_lat

        ifetch_mshrs = self.ifetch_mshrs
        pending = (ifetch_mshrs._pending.get(line)
                   if ifetch_mshrs._pending else None)
        if pending is not None and pending.ready_cycle > cycle:
            return MemResult(max(cycle + lat, pending.ready_cycle), PENDING,
                             line, l1_miss=True, mshr=pending)

        if self.l1i.lookup(line):
            return MemResult(cycle + lat, L1, line)

        if ifetch_mshrs.full:
            return MemResult(cycle + 1, STALL, line)

        l2_line = pc // self._l2_line_bytes
        if self.l2.lookup(l2_line):
            ready = cycle + lat + self._l2_lat
            level = L2
            l2_miss = False
        else:
            l2_miss = True
            # Sequential code is exactly what stream buffers were built
            # for; the instruction stream shares them with data.
            stream_ready = self.prefetcher.lookup(l2_line, cycle)
            if stream_ready is not None:
                ready = max(cycle + lat + self._l2_lat, stream_ready)
                level = STREAM
            else:
                ready = max(cycle + lat, self.memory.read_line(cycle))
                self.prefetcher.train(l2_line, cycle)
                level = MEMORY
            self._install_l2(l2_line, dirty=False, cycle=cycle)
        self.l1i.insert(line)
        mshr = ifetch_mshrs.allocate(line, ready, is_l2=l2_miss)
        return MemResult(ready, level, line, l1_miss=True, l2_miss=l2_miss,
                         mshr=mshr, new_fill=True)

    # ------------------------------------------------------------------
    # maintenance
    # ------------------------------------------------------------------
    def next_event_cycle(self) -> int | None:
        """The hierarchy's event horizon: the earliest cycle any pending
        fill (data or instruction side) completes, or None when idle."""
        data = self.mshrs._next_ready
        ifetch = self.ifetch_mshrs._next_ready
        if data is None:
            return ifetch
        if ifetch is None or data < ifetch:
            return data
        return ifetch

    def outstanding_demand_misses(self, cycle: int) -> int:
        return self.mshrs.outstanding_demand(cycle)

    # ------------------------------------------------------------------
    def _install_l1d(self, line: int, dirty: bool, cycle: int) -> None:
        victim = self.l1d.insert(line, dirty=dirty)
        if victim is None:
            return
        pushed = self.l1d_victims.insert(*victim)
        if pushed is not None and pushed[1]:
            # Dirty line leaves the L1 domain: write back into the L2.
            l2_line = pushed[0] * self.config.l1d.line_bytes // self.config.l2.line_bytes
            if not self.l2.mark_dirty(l2_line):
                self._install_l2(l2_line, dirty=True, cycle=cycle)

    def _install_l2(self, l2_line: int, dirty: bool, cycle: int) -> None:
        victim = self.l2.insert(l2_line, dirty=dirty)
        if victim is None:
            return
        # Enforce inclusion: drop L1 copies of the evicted L2 line.
        ratio = self._l1d_per_l2
        for i in range(ratio):
            self.l1d.invalidate(victim[0] * ratio + i)
        ratio = self._l1i_per_l2
        for i in range(ratio):
            self.l1i.invalidate(victim[0] * ratio + i)
        pushed = self.l2_victims.insert(*victim)
        if pushed is not None and pushed[1]:
            self.memory.write_line(cycle)
