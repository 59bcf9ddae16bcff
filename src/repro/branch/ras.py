"""Return address stack (Table 1: 32-entry)."""

from __future__ import annotations


class RAS:
    """Circular return-address stack.

    ``push`` on calls (``jal``), ``pop`` on returns (``jr``).  The stack
    wraps silently on overflow — matching hardware, deep call chains
    overwrite the oldest entries and the corresponding returns
    mispredict.
    """

    def __init__(self, entries: int = 32) -> None:
        self.capacity = entries
        self._stack = [0] * entries
        self._top = 0  # number of logically valid entries, saturating
        self._ptr = 0  # physical top-of-stack index

    def push(self, return_pc: int) -> None:
        self._stack[self._ptr] = return_pc
        self._ptr = (self._ptr + 1) % self.capacity
        self._top = min(self._top + 1, self.capacity)

    def pop(self) -> int | None:
        """Predicted return address, or None when logically empty."""
        if self._top == 0:
            return None
        self._ptr = (self._ptr - 1) % self.capacity
        self._top -= 1
        return self._stack[self._ptr]

    def __len__(self) -> int:
        return self._top
