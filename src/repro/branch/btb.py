"""Branch target buffer (Table 1: 2K-entry)."""

from __future__ import annotations


class BTB:
    """Direct-mapped tagged target buffer.

    Maps a branch/jump PC to its most recent taken target.  A miss (or
    tag mismatch) means the front end cannot redirect until the branch
    resolves, even if the direction predictor says "taken".
    """

    def __init__(self, entries: int = 2048) -> None:
        if entries & (entries - 1):
            raise ValueError("BTB entries must be a power of two")
        self.mask = entries - 1
        self._tags = [None] * entries
        self._targets = [0] * entries

    def _index(self, pc: int) -> int:
        return (pc >> 2) & self.mask

    def predict(self, pc: int) -> int | None:
        """Predicted target of the control instruction at ``pc``, or None."""
        index = self._index(pc)
        if self._tags[index] == pc:
            return self._targets[index]
        return None

    def update(self, pc: int, target: int) -> None:
        index = self._index(pc)
        self._tags[index] = pc
        self._targets[index] = target
