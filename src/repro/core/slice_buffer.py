"""The slice buffer (Sections 3.1 and 3.4 of the paper).

A program-ordered FIFO of miss-dependent instructions and their
captured miss-independent side inputs.  Key behaviours the paper calls
out, all implemented here:

* **Sparse multi-pass processing.**  Entries are never re-enqueued;
  a processed entry is "un-poisoned" in place, and re-circulating an
  instruction just re-poisons its existing slot.  Successive rally
  passes therefore skip a growing number of inactive entries, and
  space is only reclaimed incrementally from the head.
* **Program order.**  Entries appear in capture (program) order, so
  rallies can merge with tail execution without reordering hazards.
* **Poison vectors.**  Each entry carries the union of its sources'
  poison bits; a rally pass visits only entries overlapping the bits
  whose misses returned.
"""

from __future__ import annotations

from collections import deque

from ..functional.trace import DynInst


class SliceEntry:
    """One deferred instruction with its captured side inputs.

    ``captured`` maps source-register index -> value for the inputs that
    were *not* poisoned at capture time (the "SL" operands of Figure 3);
    poisoned inputs bind to their producing slice instruction via
    ``producer_seq`` and take its ``result_value`` during rallies (the
    paper reads them through the scratch register file).  Re-poisoned
    visits capture inputs that have since become available, so later passes
    never chase stale producers.  ``ssn_limit`` records the store-buffer
    tail at capture so re-executing loads only forward from older
    stores; ``ssn`` names the store-buffer slot of a sliced store.
    ``redefers`` counts rally visits that re-deferred this load on a
    fresh qualifying miss — the forward-progress bound on chained
    re-advance (see ``ICFPCore._rally_load``).
    """

    __slots__ = ("dyn", "seq", "captured", "poison", "active", "ssn_limit",
                 "predicted_ok", "producer_seq", "result_value", "done_cycle",
                 "ssn", "redefers")

    def __init__(self, dyn: DynInst, seq: int, captured: dict, poison: int,
                 ssn_limit: int, predicted_ok: bool = True,
                 producer_seq: dict | None = None, ssn: int | None = None) -> None:
        self.dyn = dyn
        self.seq = seq
        self.captured = captured
        self.poison = poison
        self.active = True
        self.ssn_limit = ssn_limit
        self.predicted_ok = predicted_ok
        self.producer_seq = producer_seq if producer_seq is not None else {}
        self.result_value = None
        self.done_cycle = 0
        self.ssn = ssn
        self.redefers = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "active" if self.active else "done"
        return f"<SliceEntry seq={self.seq} poison={self.poison:#x} {state}>"


class SliceBuffer:
    """Bounded, program-ordered, sparse slice buffer."""

    def __init__(self, capacity: int = 128) -> None:
        self.capacity = capacity
        self._entries: deque[SliceEntry] = deque()
        self._active = 0

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def full(self) -> bool:
        return len(self._entries) >= self.capacity

    @property
    def empty(self) -> bool:
        return not self._entries

    def deactivate(self, entry: SliceEntry) -> None:
        """Mark ``entry`` processed (un-poisoned in place)."""
        if entry.active:
            entry.active = False
            self._active -= 1

    def append(self, entry: SliceEntry) -> None:
        """Capture a miss-dependent instruction (program order)."""
        if self.full:
            raise OverflowError("slice buffer full")
        if self._entries and entry.seq <= self._entries[-1].seq:
            raise ValueError("slice buffer must stay in program order")
        self._entries.append(entry)
        self._active += 1

    def reclaim_head(self) -> int:
        """Free processed entries from the head; returns entries freed."""
        freed = 0
        while self._entries and not self._entries[0].active:
            self._entries.popleft()
            freed += 1
        return freed

    def entries(self):
        """All entries, oldest first (rally passes scan this)."""
        return self._entries

    def pending_poison(self) -> int:
        """Union of poison bits over active entries."""
        mask = 0
        for entry in self._entries:
            if entry.active:
                mask |= entry.poison
        return mask

    def flush(self) -> int:
        """Squash: drop everything; returns the number dropped."""
        dropped = len(self._entries)
        self._entries.clear()
        self._active = 0
        return dropped
