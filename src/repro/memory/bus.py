"""Memory-side bus with finite bandwidth and demand priority.

Table 1: "400 cycle latency to the first 16 bytes, 4 cycles to each
additional 16 byte chunk" — a 128-byte L2 line therefore occupies the
data bus for 32 cycles, which bounds exploitable memory-level
parallelism at roughly ``latency / occupancy = 400 / 32 = 12.5``
(Section 5.1 notes the simulated machine "can only practically exploit
an L2 MLP of 12").

Two scheduling classes model demand priority: demand fills serialise
only against other demand fills, while prefetches and write-backs queue
behind *all* previously scheduled traffic.  This keeps a stream-buffer
top-up burst from delaying the very demand misses it was triggered by,
at the cost of slight bandwidth over-commit when the two classes
overlap (documented in DESIGN.md).
"""

from __future__ import annotations


class Bus:
    """Serialises line transfers: at most one every ``occupancy`` cycles
    per class, with the low-priority class queuing behind everything."""

    def __init__(self, occupancy: int) -> None:
        if occupancy < 1:
            raise ValueError("bus occupancy must be >= 1")
        self.occupancy = occupancy
        self._next_free_demand = 0
        self._next_free_any = 0

    def schedule(self, earliest: int, demand: bool = True) -> int:
        """Reserve a transfer slot; returns the cycle the transfer *ends*."""
        if demand:
            start = max(earliest, self._next_free_demand)
            end = start + self.occupancy
            self._next_free_demand = end
            if end > self._next_free_any:
                self._next_free_any = end
        else:
            start = max(earliest, self._next_free_any)
            end = start + self.occupancy
            self._next_free_any = end
        return end

    @property
    def next_free(self) -> int:
        return self._next_free_any

    def next_event_cycle(self, cycle: int) -> int | None:
        """Event-horizon contract: the cycle the bus next goes idle, or
        None when it already is at ``cycle``.  Fill completion times
        already embed bus scheduling (MSHR ``ready_cycle``), so core
        models need not consult this directly; it keeps the bus within
        the contract every stateful component follows."""
        next_free = self._next_free_any
        return next_free if next_free > cycle else None
