"""Main-memory timing model (Table 1 parameters)."""

from __future__ import annotations

from .bus import Bus


class MainMemory:
    """DRAM with a fixed access latency and a bandwidth-limited data bus.

    A request issued at cycle ``t`` returns its critical chunk at
    ``t + latency`` provided the data bus has a free slot; back-to-back
    line fills are spaced by the bus occupancy (32 cycles for a 128-byte
    line at 4 cycles per 16-byte chunk).
    """

    def __init__(self, latency: int = 400, chunk_cycles: int = 4,
                 chunk_bytes: int = 16, line_bytes: int = 128) -> None:
        self.latency = latency
        self.bus = Bus(chunk_cycles * (line_bytes // chunk_bytes))

    @property
    def line_occupancy(self) -> int:
        """Data-bus cycles one full line transfer occupies."""
        return self.bus.occupancy

    def read_line(self, cycle: int, prefetch: bool = False) -> int:
        """Issue a line fill at ``cycle``; returns the data-ready cycle.

        Demand fills (``prefetch=False``) serialise only against other
        demand fills; prefetch fills queue behind all earlier traffic.
        """
        earliest_data = cycle + self.latency
        return self.bus.schedule(earliest_data - self.bus.occupancy,
                                 demand=not prefetch)

    def write_line(self, cycle: int) -> int:
        """Issue a write-back; consumes bus bandwidth, returns completion."""
        return self.bus.schedule(cycle, demand=False)
