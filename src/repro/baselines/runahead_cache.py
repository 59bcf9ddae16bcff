"""Runahead cache (Mutlu et al., HPCA 2003; Table 1: 256 entries).

A small direct-mapped structure that holds the results of runahead-mode
stores so runahead loads can forward from them.  Forwarding is
"best-effort": a conflicting store simply overwrites the previous
occupant, and the paper (Section 3.2) stresses that this is acceptable
for Runahead *only* because all runahead results are thrown away —
iCFP's committed advance state needs the lossless chained store buffer
instead.
"""

from __future__ import annotations


class RunaheadCache:
    """Direct-mapped word-granular forwarding cache for runahead stores."""

    def __init__(self, entries: int = 256) -> None:
        if entries & (entries - 1):
            raise ValueError("runahead cache entries must be a power of two")
        self.entries = entries
        self._addrs: list[int | None] = [None] * entries
        self._values: list = [None] * entries
        self._poison: list[bool] = [False] * entries

    def _index(self, addr: int) -> int:
        return (addr >> 3) & (self.entries - 1)

    def write(self, addr: int, value, poisoned: bool = False) -> None:
        """Record a runahead store (displacing any conflicting entry)."""
        index = self._index(addr)
        self._addrs[index] = addr
        self._values[index] = value
        self._poison[index] = poisoned

    def read(self, addr: int):
        """(value, poisoned) for a forwarding hit, else ``None``."""
        index = self._index(addr)
        if self._addrs[index] == addr:
            return (self._values[index], self._poison[index])
        return None

    def flush(self) -> None:
        """Runahead period ended: all contents are discarded."""
        self._addrs = [None] * self.entries
        self._values = [None] * self.entries
        self._poison = [False] * self.entries
