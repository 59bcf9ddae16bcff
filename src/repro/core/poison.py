"""Poison-vector allocation (Section 3.4 of the paper).

iCFP generalises the single poison bit of Runahead into an N-bit poison
*vector*: each in-flight miss is tagged with one bit, dependants carry
the union of their sources' bits, and a rally pass touches only
instructions whose vector overlaps the bits whose misses just returned.

Bit assignment follows the paper: "Load misses to the same MSHR (i.e.,
cache line) are allocated the same bit, whereas loads to different
MSHRs may share a bit.  The precise assignment of poison bits to MSHRs
is unimportant, a simple round-robin scheme is sufficient."
"""

from __future__ import annotations

from ..memory.mshr import MSHR


class PoisonAllocator:
    """Round-robin assignment of poison-vector bits to MSHRs."""

    def __init__(self, num_bits: int = 8) -> None:
        if num_bits < 1:
            raise ValueError("poison vectors need at least one bit")
        self.num_bits = num_bits
        self._next = 0

    @property
    def full_mask(self) -> int:
        return (1 << self.num_bits) - 1

    def bit_for(self, mshr: MSHR) -> int:
        """Poison *mask* for a missing load's MSHR.

        The first load to miss on a line claims the next bit round-robin
        and records it in the MSHR; secondary misses to the same line
        reuse it, so their dependants rally together when the fill
        returns.
        """
        if mshr.poison_bit is None:
            mshr.poison_bit = self._next
            self._next = (self._next + 1) % self.num_bits
        return 1 << mshr.poison_bit

    def mask_of_returned(self, mshrs) -> int:
        """Union mask of the poison bits carried by returned MSHRs."""
        mask = 0
        for mshr in mshrs:
            if mshr.poison_bit is not None:
                mask |= 1 << mshr.poison_bit
        return mask
