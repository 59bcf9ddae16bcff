"""The vanilla in-order baseline.

This is :class:`~repro.engine.base.CoreModel`'s issue rules plus the
model's one per-cycle body: the pipeline stalls at the first instruction
that uses a missing load's value, while independent accesses behind it
in the fetch queue wait.  Table 1's non-blocking hierarchy still
overlaps misses that issue before the pipeline blocks.
"""

from __future__ import annotations

from ..engine.base import CoreModel, ISSUED


class InOrderCore(CoreModel):
    """2-way superscalar stall-on-use in-order pipeline."""

    name = "in-order"

    def step_cycle(self) -> None:
        # The model's only per-cycle body; the golden fixtures and the
        # leap audit (leap vs. ``leap=False``) pin its behaviour.
        cycle = self.cycle + 1
        self.cycle = cycle
        # miss returns (MSHR retire fast path inlined)
        hierarchy = self.hierarchy
        ifetch_mshrs = hierarchy.ifetch_mshrs
        if (ifetch_mshrs._next_ready is not None
                and cycle >= ifetch_mshrs._next_ready):
            ifetch_mshrs.retire_complete(cycle)
        data_mshrs = hierarchy.mshrs
        if data_mshrs._next_ready is not None and cycle >= data_mshrs._next_ready:
            data_mshrs.retire_complete(cycle)
        # in-order issue
        ports = self.ports
        ports.int_free = ports.int_capacity
        ports.mem_free = ports.mem_capacity
        head = start = self.fetch_head
        cursor = self.cursor
        end = head + self._width
        if end > cursor:
            end = cursor
        decode_ready = self._decode_ready
        while (head < end and decode_ready[head] <= cycle
               and self.try_issue(head) is ISSUED):
            head += 1
        self.fetch_head = head
        progress = head != start
        # do_fetch (shared body; guard saves the call when idle)
        if (not self.fetch_blocked and cycle >= self.fetch_resume_cycle
                and cursor < self._trace_len
                and cursor - head < self._fq_depth
                and self.do_fetch(cycle, head, cursor) != cursor):
            progress = True
        # store drain
        store_queue = self.store_queue
        if store_queue._queue and store_queue.drain_step(
                self.hierarchy, cycle, self.committed_memory):
            progress = True
        if not progress:
            self._leap_to_horizon()
