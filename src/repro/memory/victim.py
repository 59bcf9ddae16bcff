"""Small fully-associative victim buffer (Table 1: 8-entry L1, 4-entry L2)."""

from __future__ import annotations

from collections import OrderedDict


class VictimBuffer:
    """Holds recently evicted lines; a hit swaps the line back upstream.

    Entries map line address -> dirty flag, in FIFO order.  A zero-entry
    buffer is legal and never hits, which lets configurations disable the
    structure without special cases.
    """

    def __init__(self, entries: int) -> None:
        self.capacity = entries
        self._lines: OrderedDict[int, bool] = OrderedDict()

    def __len__(self) -> int:
        return len(self._lines)

    def insert(self, line_addr: int, dirty: bool = False):
        """Add an evicted line; returns a pushed-out ``(line, dirty)`` or None."""
        if self.capacity == 0:
            return (line_addr, dirty)
        if line_addr in self._lines:
            self._lines[line_addr] = self._lines[line_addr] or dirty
            return None
        self._lines[line_addr] = dirty
        if len(self._lines) > self.capacity:
            return self._lines.popitem(last=False)
        return None

    def extract(self, line_addr: int):
        """On a hit, remove and return ``(line, dirty)``; else ``None``."""
        if line_addr in self._lines:
            return (line_addr, self._lines.pop(line_addr))
        return None

    def probe(self, line_addr: int) -> bool:
        return line_addr in self._lines
