"""Hardware stream-buffer prefetcher (Table 1: 8 buffers x 8 x 128-byte blocks).

Stream buffers sit at the L2 miss interface, after the style of Jouppi:
an L2 miss that does not match any buffer allocates a new stream that
prefetches sequential lines ahead of the miss; an L2 miss that hits a
buffer consumes the prefetched line (much cheaper than DRAM) and tops
the stream up.  Prefetches consume real memory-bus bandwidth via the
shared :class:`~repro.memory.main_memory.MainMemory`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .main_memory import MainMemory


@dataclass
class _PrefetchedLine:
    line_addr: int
    ready_cycle: int


@dataclass
class StreamBuffer:
    """One sequential stream of prefetched lines."""

    depth: int
    next_line: int = -1
    queue: list[_PrefetchedLine] = field(default_factory=list)
    last_used_cycle: int = -1
    live: bool = False

    def probe(self, line_addr: int) -> _PrefetchedLine | None:
        for entry in self.queue:
            if entry.line_addr == line_addr:
                return entry
        return None


class StreamPrefetcher:
    """A file of sequential stream buffers with LRU stream replacement."""

    def __init__(self, memory: MainMemory, num_buffers: int = 8,
                 depth: int = 8) -> None:
        self.memory = memory
        self.buffers = [StreamBuffer(depth=depth) for _ in range(num_buffers)]

    def enabled(self) -> bool:
        return bool(self.buffers)

    # ------------------------------------------------------------------
    def lookup(self, line_addr: int, cycle: int):
        """Probe the stream buffers for an L2 demand miss.

        On a hit, consumes the stream up to and including the line, tops
        the stream back up, and returns the cycle the line is available.
        Returns ``None`` on a miss *without* allocating — callers issue
        the demand fill first (demand beats prefetch onto the bus) and
        then call :meth:`train`.
        """
        if not self.buffers:
            return None
        for buf in self.buffers:
            if not buf.live:
                continue
            entry = buf.probe(line_addr)
            if entry is None:
                continue
            # Consume the stream up to and including the hit line.
            while buf.queue and buf.queue[0].line_addr != line_addr:
                buf.queue.pop(0)
            hit = buf.queue.pop(0)
            buf.last_used_cycle = cycle
            self._top_up(buf, cycle)
            return hit.ready_cycle
        return None

    def train(self, line_addr: int, cycle: int) -> None:
        """Allocate a new stream after a demand miss that hit no buffer."""
        if self.buffers:
            self._allocate(line_addr, cycle)

    # ------------------------------------------------------------------
    def _allocate(self, line_addr: int, cycle: int) -> None:
        """Start a new stream at ``line_addr + 1`` in the LRU buffer."""
        victim = min(self.buffers, key=lambda b: (b.live, b.last_used_cycle))
        victim.live = True
        victim.queue.clear()
        victim.next_line = line_addr + 1
        victim.last_used_cycle = cycle
        self._top_up(victim, cycle)

    def _top_up(self, buf: StreamBuffer, cycle: int) -> None:
        """Issue prefetches until the buffer is at depth."""
        while len(buf.queue) < buf.depth:
            ready = self.memory.read_line(cycle, prefetch=True)
            buf.queue.append(_PrefetchedLine(buf.next_line, ready))
            buf.next_line += 1

    def outstanding(self, cycle: int) -> int:
        """Prefetched lines still in flight at ``cycle`` (diagnostics)."""
        return sum(
            1
            for buf in self.buffers
            for entry in buf.queue
            if entry.ready_cycle > cycle
        )
