"""Conventional associatively-searched store buffer.

This is the 32-entry structure a vanilla in-order processor already has
(Table 1), used by the in-order, Runahead, and Multipass models.  It
exists to tolerate store-miss latency and to forward committed store
data to younger loads; iCFP replaces it with the much larger
address-hash chained design in :mod:`repro.core.store_buffer`, which
takes its place as the core's ``store_queue``.  Both answer the one
normal-mode issue rule (:meth:`~repro.engine.base.CoreModel.try_issue`)
through ``full``/``allocate``/``forward``; a forward they return
carries ``value`` and ``excess_hops``, or is an :class:`IndexedStall`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import ClassVar


class IndexedStall:
    """Sentinel forward: an ``indexed`` store buffer cannot disambiguate
    the load until the conflicting store (``ssn``) drains."""

    __slots__ = ("ssn",)

    def __init__(self, ssn: int) -> None:
        self.ssn = ssn


@dataclass(slots=True)
class StoreQueueEntry:
    addr: int
    value: object
    #: Cycle the in-progress drain completes; None until launched.
    drain_ready: int | None = None
    #: Forwarding latency past the D$ probe: none for an associative
    #: search (the chained store buffer counts its chain hops here).
    excess_hops: ClassVar[int] = 0


class StoreQueue:
    """FIFO of committed stores awaiting their turn to write the cache."""

    def __init__(self, entries: int) -> None:
        if entries < 1:
            raise ValueError(f"store queue needs at least one entry, "
                             f"not {entries}")
        self.capacity = entries
        self._queue: deque[StoreQueueEntry] = deque()
        #: addr -> resident-entry count; lets the (dominant) no-match
        #: forward probes answer in O(1) instead of scanning the queue.
        self._addr_counts: dict[int, int] = {}

    def __len__(self) -> int:
        return len(self._queue)

    @property
    def full(self) -> bool:
        return len(self._queue) >= self.capacity

    @property
    def empty(self) -> bool:
        return not self._queue

    def allocate(self, addr: int, value) -> StoreQueueEntry:
        if self.full:
            raise OverflowError("store queue full")
        entry = StoreQueueEntry(addr, value)
        self._queue.append(entry)
        counts = self._addr_counts
        counts[addr] = counts.get(addr, 0) + 1
        return entry

    def forward(self, addr: int):
        """Youngest matching store's value, or None (associative search)."""
        if addr not in self._addr_counts:
            return None
        for entry in reversed(self._queue):
            if entry.addr == addr:
                return entry
        return None  # pragma: no cover - index guarantees a hit

    # ------------------------------------------------------------------
    # drain
    # ------------------------------------------------------------------
    def head(self) -> StoreQueueEntry | None:
        return self._queue[0] if self._queue else None

    def drain_step(self, hierarchy, cycle: int, memory_image=None) -> bool:
        """Advance the head store's cache write by one cycle.

        Launches the head's D$ access if needed and pops it once the
        access completes.  ``memory_image`` (a dict) receives the value,
        letting callers track committed memory state.  Returns True when
        a store finished draining this cycle.
        """
        if not self._queue:
            return False
        head = self._queue[0]
        if head.drain_ready is None:
            ready = hierarchy.data_hit_cycle(head.addr, cycle, is_store=True)
            if ready is None:
                result = hierarchy.data_access(head.addr, cycle, is_store=True)
                if result.stalled:
                    return False  # no MSHR: retry next cycle
                ready = result.ready_cycle
            head.drain_ready = ready
        if head.drain_ready <= cycle:
            if memory_image is not None:
                memory_image[head.addr] = head.value
            self._queue.popleft()
            counts = self._addr_counts
            remaining = counts[head.addr] - 1
            if remaining:
                counts[head.addr] = remaining
            else:
                del counts[head.addr]
            return True
        return False

    def flush(self) -> int:
        """Discard all entries (advance-mode squash); returns count."""
        dropped = len(self._queue)
        self._queue.clear()
        self._addr_counts.clear()
        return dropped

    def next_event_cycle(self, cycle: int) -> int | None:
        """Earliest future cycle the head can make progress, if known.

        Part of the event-horizon contract: the leap engine jumps the
        clock to the minimum of these across all stateful components.
        """
        if not self._queue:
            return None
        head = self._queue[0]
        drain_ready = head.drain_ready
        if drain_ready is None or drain_ready <= cycle:
            return cycle + 1
        return drain_ready
