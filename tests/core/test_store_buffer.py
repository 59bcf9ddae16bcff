"""Unit tests for the address-hash chained store buffer (Figure 4)."""

import pytest

from repro.core.store_buffer import ChainedStoreBuffer, ForwardResult, IndexedStall


def make(kind="chained", capacity=8, table=16):
    return ChainedStoreBuffer(capacity=capacity, chain_table_size=table, kind=kind)


def test_rejects_bad_kind_and_table():
    with pytest.raises(ValueError):
        make(kind="banana")
    with pytest.raises(ValueError):
        ChainedStoreBuffer(chain_table_size=100)


def test_allocate_assigns_ssns_in_order():
    sb = make()
    assert sb.allocate(0x40, 1, 0, seq=0) == 0
    assert sb.allocate(0x48, 2, 0, seq=1) == 1
    assert len(sb) == 2 and not sb.empty


def test_forward_youngest_matching_store():
    sb = make()
    sb.allocate(0x40, 1, 0, seq=0)
    sb.allocate(0x40, 2, 0, seq=1)  # younger store, same address
    fwd = sb.forward(0x40)
    assert isinstance(fwd, ForwardResult)
    assert fwd.value == 2 and fwd.ssn == 1


def test_forward_miss_goes_to_cache():
    sb = make()
    sb.allocate(0x40, 1, 0, seq=0)
    assert sb.forward(0x1040 + 8) is None  # different hash entirely


def test_chain_walk_counts_excess_hops():
    """Figure 4: stores to x34/x44 share a hash chain; finding the older
    one requires walking past the younger (one excess hop)."""
    sb = make(table=8)  # hash = (addr >> 3) & 7
    sb.allocate(0x34 * 8, 10, 0, seq=0)  # hash 4
    sb.allocate(0x44 * 8, 14, 0, seq=1)  # hash 4 (collides: 0x44 & 7 == 4)
    fwd = sb.forward(0x34 * 8)
    assert fwd.value == 10
    assert fwd.excess_hops == 1
    # The younger store is at the chain root: no excess hops.
    assert sb.forward(0x44 * 8).excess_hops == 0


def test_forward_respects_before_ssn():
    """Rally loads skip stores younger than themselves (Section 3.2)."""
    sb = make()
    sb.allocate(0x40, 1, 0, seq=0)   # ssn 0 (older than the load)
    sb.allocate(0x40, 9, 0, seq=5)   # ssn 1 (younger than the load)
    fwd = sb.forward(0x40, before_ssn=1)
    assert fwd.value == 1 and fwd.ssn == 0


def test_poisoned_store_propagates_poison():
    sb = make()
    sb.allocate(0x40, None, 0b100, seq=0)
    fwd = sb.forward(0x40)
    assert fwd.poison == 0b100 and fwd.value is None


def test_update_store_fills_value():
    sb = make()
    ssn = sb.allocate(0x40, None, 0b1, seq=0)
    sb.update_store(ssn, 77, 0)
    fwd = sb.forward(0x40)
    assert fwd.value == 77 and fwd.poison == 0


def test_capacity_and_overflow():
    sb = make(capacity=2)
    sb.allocate(0x00, 0, 0, seq=0)
    sb.allocate(0x08, 0, 0, seq=1)
    assert sb.full
    with pytest.raises(OverflowError):
        sb.allocate(0x10, 0, 0, seq=2)
    assert len(sb) == 2 and sb.ssn_tail == 2
    assert sb.forward(0x10) is None


def test_drain_advances_ssn_complete_and_terminates_chains():
    class FakeHierarchy:
        def data_access(self, addr, cycle, is_store=False):
            class R:
                ready_cycle = cycle + 3
                stalled = False
            return R()

    sb = make()
    sb.allocate(0x40, 5, 0, seq=0)
    mem = {}
    h = FakeHierarchy()
    assert not sb.drain_step(h, 0, mem)  # launches, not yet complete
    assert sb.drain_step(h, 3, mem)
    assert mem[0x40] == 5
    assert sb.ssn_complete == 0
    assert sb.empty
    # SSNs at/below ssn_complete act as chain-terminating null pointers.
    assert sb.forward(0x40) is None


def test_drain_gate_blocks_checkpointed_stores():
    sb = make()
    sb.allocate(0x40, 5, 0, seq=0)
    assert not sb.drain_step(None, 0, {}, before_ssn=0)


def test_drain_blocked_by_poisoned_head():
    sb = make()
    sb.allocate(0x40, None, 0b1, seq=0)
    assert not sb.drain_step(None, 0, {})
    assert sb.next_event_cycle(0) is None  # woken by rally, not time


def test_squash_rebuilds_chain_table():
    sb = make()
    sb.allocate(0x40, 1, 0, seq=0)
    sb.allocate(0x40, 2, 0, seq=1)
    sb.allocate(0x48, 3, 0, seq=2)
    dropped = sb.squash_to(1)
    assert dropped == 2
    fwd = sb.forward(0x40)
    assert fwd.value == 1 and fwd.ssn == 0  # survivor re-rooted
    assert sb.forward(0x48) is None


def test_squash_forwards_rejected():
    sb = make()
    sb.allocate(0x40, 1, 0, seq=0)
    with pytest.raises(ValueError):
        sb.squash_to(5)


# ----------------------------------------------------------------------
# alternative access disciplines (Figure 8)
# ----------------------------------------------------------------------
def test_assoc_oracle_matches_chained_result():
    chained, assoc = make(), make(kind="assoc")
    for sb in (chained, assoc):
        sb.allocate(0x40, 1, 0, seq=0)
        sb.allocate(0x140, 2, 0, seq=1)
        sb.allocate(0x40, 3, 0, seq=2)
    c, a = chained.forward(0x40), assoc.forward(0x40)
    assert c.value == a.value == 3
    assert a.excess_hops == 0  # idealised: no hop cost


def test_indexed_limited_forwarding_stalls_on_hash_conflict():
    sb = make(kind="indexed", table=8)
    sb.allocate(0x34 * 8, 10, 0, seq=0)
    sb.allocate(0x44 * 8, 14, 0, seq=1)  # same hash bucket
    hit = sb.forward(0x44 * 8)
    assert isinstance(hit, ForwardResult) and hit.value == 14
    conflict = sb.forward(0x34 * 8)  # root mismatch -> cannot disambiguate
    assert isinstance(conflict, IndexedStall)
    assert conflict.ssn == 1


def test_indexed_miss_when_bucket_empty():
    sb = make(kind="indexed")
    assert sb.forward(0x40) is None
