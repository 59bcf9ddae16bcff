"""Load signature for multiprocessor safety (Section 3.3).

iCFP's same-thread forwarding is non-speculative, but checkpointed
execution leaves committed loads vulnerable to stores from *other*
threads.  Instead of a large associative load queue, iCFP keeps one
local Bloom-filter-style signature: loads that took their value from
the cache (the vulnerable ones — store-buffer forwards are immune)
hash their address in; external stores probe it, and a hit squashes to
the checkpoint.  The signature is cleared when a rally completes.
Unlike the signatures of BulkSC/LogTM-style proposals, it is never
communicated between processors.
"""

from __future__ import annotations


class LoadSignature:
    """Single local address signature with k hash functions."""

    def __init__(self, bits: int = 1024, hashes: int = 2) -> None:
        if bits & (bits - 1):
            raise ValueError("signature size must be a power of two")
        if hashes < 1:
            raise ValueError("need at least one hash function")
        self.bits = bits
        self.hashes = hashes
        self._word = 0

    def _positions(self, addr: int):
        # Word-granular address, mixed with a multiplicative hash per way.
        base = addr >> 3
        for k in range(self.hashes):
            yield ((base * (0x9E3779B1 + 2 * k + 1)) >> 7) & (self.bits - 1)

    def insert(self, addr: int) -> None:
        """Record a cache-sourced load."""
        for pos in self._positions(addr):
            self._word |= 1 << pos

    def probe(self, addr: int) -> bool:
        """External store probe: True = possible conflict (squash)."""
        return all(self._word & (1 << pos) for pos in self._positions(addr))

    def clear(self) -> None:
        """Rally complete: forget everything."""
        self._word = 0

    @property
    def empty(self) -> bool:
        return self._word == 0

    def occupancy(self) -> float:
        """Fraction of signature bits set (false-positive pressure)."""
        return bin(self._word).count("1") / self.bits
