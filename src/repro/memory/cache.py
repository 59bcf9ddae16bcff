"""Set-associative cache model with LRU replacement and write-back state.

The timing engines treat caches as *tag stores*: a lookup answers
"would this access hit, and what got evicted", while access latencies
are composed by :class:`~repro.memory.hierarchy.MemoryHierarchy`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property


@dataclass(frozen=True)
class CacheConfig:
    """Geometry and latency of one cache level (Table 1 of the paper)."""

    name: str
    size_bytes: int
    assoc: int
    line_bytes: int
    hit_latency: int

    def __post_init__(self) -> None:
        if self.size_bytes % (self.assoc * self.line_bytes):
            raise ValueError(f"{self.name}: size not divisible by assoc*line")
        if self.num_sets & (self.num_sets - 1):
            raise ValueError(f"{self.name}: set count must be a power of two")

    @cached_property
    def num_sets(self) -> int:
        return self.size_bytes // (self.assoc * self.line_bytes)

    def line_addr(self, addr: int) -> int:
        return addr // self.line_bytes

    def set_index(self, line_addr: int) -> int:
        return line_addr & (self.num_sets - 1)


class Cache:
    """One level of cache: an array of LRU-ordered sets of line tags.

    Each set is a list of ``(line_addr, dirty)`` tuples ordered
    most-recently-used first.  All methods take full line addresses
    (byte address // line size), which keeps the hierarchy honest about
    differing line sizes between levels.

    Entries are immutable tuples (dirty-bit changes replace the entry):
    snapshot export/load then only needs to copy the per-set lists, not
    every entry — one core per campaign cell loads a warm snapshot, so
    this is construction-critical.
    """

    def __init__(self, config: CacheConfig) -> None:
        self.config = config
        self._sets: list[list[tuple]] = [[] for _ in range(config.num_sets)]
        #: Set-index mask, pre-computed: set selection is on the lookup
        #: fast path of every model, every cycle.
        self._set_mask = config.num_sets - 1

    # ------------------------------------------------------------------
    def lookup(self, line_addr: int) -> bool:
        """True if ``line_addr`` is present; promotes it to MRU on a hit.

        A miss changes nothing, so a caller may probe and then fall back
        to a fuller access path.
        """
        way_list = self._sets[line_addr & self._set_mask]
        for i, entry in enumerate(way_list):
            if entry[0] == line_addr:
                if i:
                    way_list.insert(0, way_list.pop(i))
                return True
        return False

    def probe(self, line_addr: int) -> bool:
        """Presence check with no LRU side effects."""
        way_list = self._sets[line_addr & self._set_mask]
        return any(entry[0] == line_addr for entry in way_list)

    def insert(self, line_addr: int, dirty: bool = False):
        """Install ``line_addr`` as MRU.

        Returns ``(victim_line_addr, victim_dirty)`` if an eviction was
        required, else ``None``.  Re-inserting a present line refreshes
        its LRU position and ORs in ``dirty``.
        """
        way_list = self._sets[line_addr & self._set_mask]
        for i, entry in enumerate(way_list):
            if entry[0] == line_addr:
                refreshed = (line_addr, entry[1] or dirty)
                if i:
                    way_list.pop(i)
                    way_list.insert(0, refreshed)
                else:
                    way_list[0] = refreshed
                return None
        way_list.insert(0, (line_addr, dirty))
        if len(way_list) > self.config.assoc:
            return way_list.pop()
        return None

    def mark_dirty(self, line_addr: int) -> bool:
        """Set the dirty bit of a present line; True if the line was found."""
        way_list = self._sets[line_addr & self._set_mask]
        for i, entry in enumerate(way_list):
            if entry[0] == line_addr:
                if not entry[1]:
                    way_list[i] = (line_addr, True)
                return True
        return False

    def invalidate(self, line_addr: int) -> bool:
        """Remove a line (SLTP flushes speculatively-written lines this way)."""
        way_list = self._sets[line_addr & self._set_mask]
        for i, entry in enumerate(way_list):
            if entry[0] == line_addr:
                way_list.pop(i)
                return True
        return False

    def resident_lines(self) -> int:
        return sum(len(s) for s in self._sets)

    # ------------------------------------------------------------------
    # tag-store snapshots (warm-state reuse across same-config cores)
    # ------------------------------------------------------------------
    def export_sets(self) -> list[list[tuple]]:
        """A copy of the tag store (lines + dirty bits + LRU order).

        Entries are immutable, so copying the way lists suffices.
        """
        return [way_list.copy() for way_list in self._sets]

    def load_sets(self, sets: list[list[tuple]]) -> None:
        """Replace the tag store with a copy of ``sets``."""
        self._sets = [way_list.copy() for way_list in sets]
