"""Miss-status holding registers.

MSHRs track in-flight line fills.  A second miss to a pending line is a
*secondary* miss: it merges into the existing MSHR and shares its fill
time instead of issuing a new memory transaction.  iCFP additionally
hangs its poison-vector bit assignment off the MSHR (one bit per MSHR,
round-robin — Section 3.4 of the paper).
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(slots=True)
class MSHR:
    """One outstanding line fill: its line, its fill time, and the
    iCFP poison bit it carries."""

    line_addr: int
    ready_cycle: int
    #: Poison-vector bit index assigned by the iCFP engine (None elsewhere).
    poison_bit: int | None = None
    #: True if the fill also missed in the L2 (drives 'L2-only' advance
    #: triggers in the Figure 6 configurations).
    is_l2: bool = False


class MSHRFull(Exception):
    """Raised when allocation is attempted with no free MSHR."""


@dataclass
class MSHRFile:
    """A bounded file of MSHRs indexed by line address.

    It holds timing state only: a secondary miss finds the pending MSHR
    by line address and shares its fill time.  The file tracks its own
    *event horizon* — the earliest pending fill time — incrementally,
    so the every-cycle retire sweep and the leap
    engine's :meth:`next_event_cycle` probe are O(1) on the (dominant)
    cycles where nothing completes.  ``ready_cycle`` is immutable after
    allocation, which is what makes the cached minimum sound.
    """

    capacity: int
    _pending: dict[int, MSHR] = field(default_factory=dict)
    #: Cached min(ready_cycle) over pending fills; None when empty.
    _next_ready: int | None = None

    def __len__(self) -> int:
        return len(self._pending)

    @property
    def full(self) -> bool:
        return len(self._pending) >= self.capacity

    def get(self, line_addr: int) -> MSHR | None:
        """The pending MSHR for ``line_addr``, or None."""
        return self._pending.get(line_addr)

    def allocate(self, line_addr: int, ready_cycle: int,
                 is_l2: bool = False) -> MSHR:
        """Allocate an MSHR for a new line fill."""
        if line_addr in self._pending:
            raise ValueError(f"line {line_addr:#x} already pending")
        if self.full:
            raise MSHRFull(f"no free MSHR for line {line_addr:#x}")
        mshr = MSHR(line_addr, ready_cycle, is_l2=is_l2)
        self._pending[line_addr] = mshr
        next_ready = self._next_ready
        if next_ready is None or ready_cycle < next_ready:
            self._next_ready = ready_cycle
        return mshr

    def retire_complete(self, cycle: int) -> list[MSHR]:
        """Remove and return all MSHRs whose fills completed by ``cycle``."""
        next_ready = self._next_ready
        if next_ready is None or cycle < next_ready:
            return []  # every-cycle fast path: nothing can have finished
        pending = self._pending
        done = [m for m in pending.values() if m.ready_cycle <= cycle]
        for mshr in done:
            del pending[mshr.line_addr]
        self._next_ready = (min(m.ready_cycle for m in pending.values())
                            if pending else None)
        return done

    def pending(self) -> list[MSHR]:
        return list(self._pending.values())

    def next_event_cycle(self) -> int | None:
        """Earliest pending fill time (the file's event horizon), or None.

        O(1): the minimum is maintained incrementally by allocate/retire.
        """
        return self._next_ready

    def outstanding_demand(self, cycle: int) -> int:
        """Number of demand fills still in flight at ``cycle`` (stream
        prefetches hold stream-buffer slots, never MSHRs)."""
        return sum(1 for m in self._pending.values() if m.ready_cycle > cycle)
