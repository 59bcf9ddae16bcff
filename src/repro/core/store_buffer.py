"""Address-hash chained store buffer (Section 3.2, Figure 4).

The paper's novel data-memory structure: a *large, indexed* store
buffer that supports store-to-load forwarding without associative
search.  Stores are named by SSNs (store sequence numbers — extended
store-buffer indices that can also name stores already drained to the
cache).  A small address-indexed *chain table* maps a hash of the
address to the SSN of the youngest store with that hash; each store
buffer entry carries an ``ssn_link`` to the next-youngest store with
the same hash.  Loads walk the chain; SSNs at or below ``ssn_complete``
(the youngest store already written to the cache) terminate it.

Three access disciplines are selectable for the Figure 8 study:

* ``chained``  — the paper's design: walk the chain, counting excess hops;
* ``assoc``    — idealised fully-associative search (no hop cost);
* ``indexed``  — limited forwarding: only the chain-table root is
  inspected, and a hash hit with an address mismatch stalls the load
  (the iCFP analogue of out-of-order CFP's SRL/LCF scheme).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(slots=True)
class ForwardResult:
    """Outcome of a store-buffer lookup that found a matching store."""

    value: object
    poison: int
    excess_hops: int
    ssn: int


class IndexedStall:
    """Sentinel: an ``indexed`` store buffer cannot disambiguate the load
    until the conflicting store (``ssn``) drains."""

    __slots__ = ("ssn",)

    def __init__(self, ssn: int) -> None:
        self.ssn = ssn


class _Entry:
    __slots__ = ("ssn", "addr", "value", "poison", "ssn_link", "seq",
                 "drain_ready")

    def __init__(self) -> None:
        self.ssn = -1
        self.addr = 0
        self.value = None
        self.poison = 0
        self.ssn_link = -1
        self.seq = -1
        self.drain_ready: int | None = None


class ChainedStoreBuffer:
    """SSN-named store buffer with chain-table forwarding."""

    KINDS = ("chained", "assoc", "indexed")

    def __init__(self, capacity: int = 128, chain_table_size: int = 512,
                 kind: str = "chained") -> None:
        if kind not in self.KINDS:
            raise ValueError(f"unknown store buffer kind: {kind}")
        if chain_table_size & (chain_table_size - 1):
            raise ValueError("chain table size must be a power of two")
        self.capacity = capacity
        self.kind = kind
        self._entries = [_Entry() for _ in range(capacity)]
        self._chain_mask = chain_table_size - 1
        self._chain_table = [-1] * chain_table_size
        self.ssn_tail = 0       # next SSN to assign
        self.ssn_complete = -1  # youngest SSN already in the cache

    # ------------------------------------------------------------------
    def _hash(self, addr: int) -> int:
        return (addr >> 3) & self._chain_mask

    def __len__(self) -> int:
        return self.ssn_tail - 1 - self.ssn_complete

    @property
    def full(self) -> bool:
        return len(self) >= self.capacity

    @property
    def empty(self) -> bool:
        return len(self) == 0

    def entry(self, ssn: int) -> _Entry:
        entry = self._entries[ssn % self.capacity]
        if entry.ssn != ssn:
            raise KeyError(f"SSN {ssn} not resident")
        return entry

    # ------------------------------------------------------------------
    # allocation (program order)
    # ------------------------------------------------------------------
    def allocate(self, addr: int, value, poison: int, seq: int) -> int:
        """Insert a store at the tail; returns its SSN."""
        if self.full:
            raise OverflowError("store buffer full")
        ssn = self.ssn_tail
        self.ssn_tail += 1
        entry = self._entries[ssn % self.capacity]
        entry.ssn = ssn
        entry.addr = addr
        entry.value = value
        entry.poison = poison
        entry.seq = seq
        entry.drain_ready = None
        h = self._hash(addr)
        entry.ssn_link = self._chain_table[h]
        self._chain_table[h] = ssn
        return ssn

    def update_store(self, ssn: int, value, poison: int = 0) -> None:
        """Rally re-execution fills in a previously poisoned store's data."""
        entry = self.entry(ssn)
        entry.value = value
        entry.poison = poison

    # ------------------------------------------------------------------
    # forwarding
    # ------------------------------------------------------------------
    def forward(self, addr: int, before_ssn: int | None = None):
        """Find the youngest matching store older than ``before_ssn``.

        Returns a :class:`ForwardResult`, an :class:`IndexedStall` (only
        for the ``indexed`` kind), or ``None`` when the load should read
        the data cache.  Chain-table pointers may reference stores
        younger than a rally load; walking simply skips them (Section
        3.2: "re-executing miss-dependent loads simply follow the chain
        until they encounter stores that are older than they are").
        """
        if self.kind == "assoc":
            return self._forward_assoc(addr, before_ssn)
        if self.kind == "indexed":
            return self._forward_indexed(addr, before_ssn)
        return self._forward_chained(addr, before_ssn)

    def _forward_chained(self, addr: int, before_ssn: int | None):
        ssn = self._chain_table[self._hash(addr)]
        visits = 0
        while ssn > self.ssn_complete:
            entry = self._entries[ssn % self.capacity]
            if entry.ssn != ssn:
                break  # stale pointer into a reused slot
            visits += 1
            if (before_ssn is None or ssn < before_ssn) and entry.addr == addr:
                excess = visits - 1  # first access overlaps the D$ probe
                return ForwardResult(entry.value, entry.poison, excess, ssn)
            ssn = entry.ssn_link
        return None

    def _forward_assoc(self, addr: int, before_ssn: int | None):
        top = self.ssn_tail if before_ssn is None else min(before_ssn, self.ssn_tail)
        for ssn in range(top - 1, self.ssn_complete, -1):
            entry = self._entries[ssn % self.capacity]
            if entry.ssn == ssn and entry.addr == addr:
                return ForwardResult(entry.value, entry.poison, 0, ssn)
        return None

    def _forward_indexed(self, addr: int, before_ssn: int | None):
        ssn = self._chain_table[self._hash(addr)]
        if before_ssn is not None:
            # Forward-progress guarantee for re-executing (rally) loads:
            # stores *younger* than the load can neither forward to it
            # nor alias-block it — program order already separates them.
            # Skip them via the physical chain links to the youngest
            # not-younger store before applying the indexed rule.
            # Without this, a data-poisoned sliced store at the chain
            # root alias-stalls the very loads its own data transitively
            # depends on, and rally passes livelock (the ROADMAP
            # `indexed`-kind divergence on store-heavy kernels).
            while ssn > self.ssn_complete:
                if ssn < before_ssn:
                    break
                entry = self._entries[ssn % self.capacity]
                if entry.ssn != ssn:
                    break  # stale pointer into a reused slot
                ssn = entry.ssn_link
        if ssn <= self.ssn_complete:
            return None
        entry = self._entries[ssn % self.capacity]
        if entry.ssn != ssn:
            return None
        if entry.addr == addr:
            # `ssn < before_ssn` holds here by construction of the skip.
            return ForwardResult(entry.value, entry.poison, 0, ssn)
        # Hash hit, address mismatch: cannot forward and cannot prove
        # independence -> the pipeline must wait for a drain.
        return IndexedStall(ssn)

    # ------------------------------------------------------------------
    # drain (program order, gated by the checkpoint)
    # ------------------------------------------------------------------
    def drain_step(self, hierarchy, cycle: int, committed_memory=None,
                   before_ssn: int | None = None) -> bool:
        """Advance the oldest store's cache write by one cycle.

        ``before_ssn`` is the commit gate: stores at or beyond it belong
        to the active checkpoint region and must not write the cache.
        Returns True when a store finished draining this cycle.
        """
        head_ssn = self.ssn_complete + 1
        if head_ssn >= self.ssn_tail:
            return False
        if before_ssn is not None and head_ssn >= before_ssn:
            return False
        entry = self._entries[head_ssn % self.capacity]
        if entry.poison:
            return False  # miss-dependent store: wait for its rally
        if entry.drain_ready is None:
            result = hierarchy.data_access(entry.addr, cycle, is_store=True)
            if result.stalled:
                return False
            entry.drain_ready = result.ready_cycle
        if entry.drain_ready <= cycle:
            if committed_memory is not None:
                committed_memory[entry.addr] = entry.value
            self.ssn_complete = head_ssn
            return True
        return False

    def next_event_cycle(self, cycle: int) -> int | None:
        """Event-horizon contract: earliest cycle the head drain moves."""
        head_ssn = self.ssn_complete + 1
        if head_ssn >= self.ssn_tail:
            return None
        entry = self._entries[head_ssn % self.capacity]
        if entry.poison:
            return None  # woken by rally processing instead
        drain_ready = entry.drain_ready
        if drain_ready is None or drain_ready <= cycle:
            return cycle + 1
        return drain_ready

    # ------------------------------------------------------------------
    # squash
    # ------------------------------------------------------------------
    def squash_to(self, new_tail: int) -> int:
        """Discard stores with SSN >= ``new_tail`` (checkpoint restore).

        Rebuilds the chain table from the surviving entries.  Returns
        the number of stores dropped.
        """
        if new_tail > self.ssn_tail:
            raise ValueError("cannot squash forwards")
        dropped = self.ssn_tail - max(new_tail, self.ssn_complete + 1)
        self.ssn_tail = max(new_tail, self.ssn_complete + 1)
        self._chain_table = [-1] * (self._chain_mask + 1)
        for ssn in range(self.ssn_complete + 1, self.ssn_tail):
            entry = self._entries[ssn % self.capacity]
            h = self._hash(entry.addr)
            entry.ssn_link = self._chain_table[h]
            self._chain_table[h] = ssn
        return max(dropped, 0)
