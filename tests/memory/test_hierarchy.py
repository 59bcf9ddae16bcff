"""Unit tests for the assembled memory hierarchy."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.memory import (
    L1,
    L2,
    MEMORY,
    PENDING,
    STALL,
    STREAM,
    VICTIM,
    CacheConfig,
    HierarchyConfig,
    MemoryHierarchy,
)


def tiny_hierarchy(**overrides):
    """A small hierarchy (no prefetcher) for deterministic unit tests."""
    base = dict(
        l1i=CacheConfig("l1i", 4 * 64 * 2, 2, 64, 3),
        l1d=CacheConfig("l1d", 4 * 64 * 2, 2, 64, 3),
        l2=CacheConfig("l2", 16 * 128 * 4, 4, 128, 20),
        l1d_victim_entries=2,
        l2_victim_entries=2,
        mshr_entries=4,
        ifetch_mshr_entries=2,
        memory_latency=100,
        stream_buffers=0,
        stream_depth=0,
    )
    base.update(overrides)
    return MemoryHierarchy(HierarchyConfig(**base))


def retire(h, cycle):
    """Free both MSHR files' completed fills, as every model's
    ``step_cycle`` does; returns the data side's."""
    h.ifetch_mshrs.retire_complete(cycle)
    return h.mshrs.retire_complete(cycle)


def test_default_config_is_table1():
    h = MemoryHierarchy()
    cfg = h.config
    assert cfg.l1d.size_bytes == 32 * 1024 and cfg.l1d.assoc == 4
    assert cfg.l1d.line_bytes == 64 and cfg.l1d.hit_latency == 3
    assert cfg.l2.size_bytes == 1024 * 1024 and cfg.l2.assoc == 8
    assert cfg.l2.line_bytes == 128 and cfg.l2.hit_latency == 20
    assert cfg.mshr_entries == 64
    assert cfg.memory_latency == 400
    assert cfg.stream_buffers == 8 and cfg.stream_depth == 8


def test_cold_miss_goes_to_memory_then_hits():
    h = tiny_hierarchy()
    r = h.data_access(0x2000, cycle=0)
    assert r.level == MEMORY
    assert r.l1_miss and r.l2_miss and r.new_fill
    assert r.ready_cycle >= 100
    retire(h, r.ready_cycle)
    r2 = h.data_access(0x2000, cycle=r.ready_cycle)
    assert r2.level == L1
    assert r2.ready_cycle == r.ready_cycle + 3


def test_l2_hit_latency_composition():
    h = tiny_hierarchy()
    r = h.data_access(0x2000, cycle=0)
    retire(h, r.ready_cycle)
    # Evict the L1 line by touching two same-set lines; L1 has 4 sets of 64B.
    same_set = [0x2000 + 4 * 64, 0x2000 + 8 * 64]
    for addr in same_set:
        rr = h.data_access(addr, cycle=r.ready_cycle)
        retire(h, rr.ready_cycle + 1000)
    # Push the victim line out of the 2-entry victim buffer.
    more = [0x2000 + 12 * 64, 0x2000 + 16 * 64, 0x2000 + 20 * 64]
    t = 10_000
    for addr in more:
        rr = h.data_access(addr, cycle=t)
        retire(h, rr.ready_cycle + 1000)
        t = rr.ready_cycle + 1
    r2 = h.data_access(0x2000, cycle=50_000)
    assert r2.level == L2
    assert r2.ready_cycle == 50_000 + 3 + 20


def test_secondary_miss_merges_into_pending_fill():
    h = tiny_hierarchy()
    r1 = h.data_access(0x2000, cycle=0)
    r2 = h.data_access(0x2008, cycle=5)  # same 64B line
    assert r2.level == PENDING
    assert r2.mshr is r1.mshr
    assert not r2.new_fill
    assert r2.ready_cycle == r1.ready_cycle
    assert len(h.mshrs) == 1  # no second fill
    assert h.mshrs.get(0x2000 // 64) is r1.mshr


def test_independent_misses_overlap():
    h = tiny_hierarchy()
    r1 = h.data_access(0x2000, cycle=0)
    r2 = h.data_access(0x8000, cycle=1)
    assert r1.mshr is not r2.mshr
    # Overlap: second fill completes well before 2x the serial latency.
    assert r2.ready_cycle < r1.ready_cycle + 100


def test_mshr_exhaustion_stalls():
    h = tiny_hierarchy(mshr_entries=2)
    h.data_access(0x0000, cycle=0)
    h.data_access(0x4000, cycle=0)
    r = h.data_access(0x8000, cycle=0)
    assert r.level == STALL
    assert r.stalled
    assert r.ready_cycle == 1  # retry next cycle


def test_victim_buffer_short_miss():
    h = tiny_hierarchy()
    # L1D: 4 sets, 2 ways; 0x0, 0x1000, 0x2000 share set 0 (4-set stride 256B).
    stride = 4 * 64
    addrs = [0x0, stride, 2 * stride]
    t = 0
    for a in addrs:
        r = h.data_access(a, cycle=t)
        t = r.ready_cycle + 1
        retire(h, t)
    # 0x0 was evicted into the victim buffer.
    r = h.data_access(0x0, cycle=t)
    assert r.level == VICTIM
    assert r.ready_cycle == t + 3 + 1


def test_store_marks_line_dirty_and_writeback_traffic():
    h = tiny_hierarchy()
    r = h.data_access(0x2000, cycle=0, is_store=True)
    retire(h, r.ready_cycle)
    assert h.l1d.probe(0x2000 // 64)
    # Dirty bit visible in the tag array.
    ways = h.l1d._sets[h.l1d.config.set_index(0x2000 // 64)]
    assert any(entry[0] == 0x2000 // 64 and entry[1] for entry in ways)


def test_stream_prefetcher_accelerates_sequential_misses():
    h = tiny_hierarchy(stream_buffers=2, stream_depth=4,
                       l2=CacheConfig("l2", 16 * 128 * 4, 4, 128, 20))
    t = 0
    levels = []
    for i in range(6):
        r = h.data_access(0x10_0000 + i * 128, cycle=t)
        levels.append(r.level)
        t = r.ready_cycle + 1
        retire(h, t)
    assert levels[0] == MEMORY
    assert STREAM in levels[1:]


def test_ifetch_path_and_inclusion():
    h = tiny_hierarchy()
    r = h.fetch_access(0x1000, cycle=0)
    assert r.level == MEMORY
    retire(h, r.ready_cycle)
    r2 = h.fetch_access(0x1000, cycle=r.ready_cycle)
    assert r2.level == L1
    # The unified L2 now holds the fetched line too.
    assert h.l2.probe(0x1000 // 128)


def test_ifetch_secondary_merge():
    h = tiny_hierarchy()
    r1 = h.fetch_access(0x1000, cycle=0)
    r2 = h.fetch_access(0x1008, cycle=1)
    assert r2.level == PENDING
    assert r2.ready_cycle == r1.ready_cycle


@pytest.mark.parametrize("l1i_line", [64, 32])
def test_l2_eviction_enforces_inclusion(l1i_line):
    h = tiny_hierarchy(l1i=CacheConfig("l1i", 4 * l1i_line * 2, 2, l1i_line, 3))
    # L2: 16 sets of 128B lines, 4 ways.  Fill set 0 with a code line,
    # then five data lines: the code line and data line 0 are evicted.
    code_pc = 0x1000
    r = h.fetch_access(code_pc, cycle=0)
    t = r.ready_cycle + 1
    retire(h, t)
    assert h.l1i.probe(code_pc // l1i_line)
    stride = 16 * 128
    for i in (0, 1, 3, 4, 5):
        r = h.data_access(i * stride, cycle=t)
        t = r.ready_cycle + 1
        retire(h, t)
    # Both left the L2; inclusion dropped their L1 copies, whatever
    # each L1's line size.
    assert not h.l2.probe(code_pc // 128)
    assert not h.l1i.probe(code_pc // l1i_line)
    assert not h.l1d.probe(0)
    assert not h.l2.probe(0)


def test_retire_returns_completed_fills():
    h = tiny_hierarchy()
    r = h.data_access(0x2000, cycle=0)
    assert retire(h, r.ready_cycle - 1) == []
    done = retire(h, r.ready_cycle)
    assert [m.line_addr for m in done] == [0x2000 // 64]


def test_outstanding_demand_misses():
    h = tiny_hierarchy()
    h.data_access(0x2000, cycle=0)
    h.data_access(0x8000, cycle=0)
    assert h.outstanding_demand_misses(0) == 2
    assert h.outstanding_demand_misses(10_000) == 0


# ----------------------------------------------------------------------
# the L1-hit fast path, in lockstep with the full walk
# ----------------------------------------------------------------------
def lockstep_hierarchy():
    """Small enough that a short random stream evicts, swaps victims
    back, merges into pending fills, stalls on full MSHRs and hits in
    the stream buffers."""
    return tiny_hierarchy(mshr_entries=3, stream_buffers=2, stream_depth=2)


def hierarchy_state(h):
    """Everything an access can change: tag sets in LRU order with
    dirty bits, victim buffers, pending MSHRs, bus and stream buffers."""
    bus = h.memory.bus
    return (
        h.l1i.export_sets(), h.l1d.export_sets(), h.l2.export_sets(),
        list(h.l1d_victims._lines.items()), list(h.l2_victims._lines.items()),
        [(m.line_addr, m.ready_cycle, m.is_l2) for m in h.mshrs.pending()],
        h.mshrs.next_event_cycle(),
        (bus._next_free_demand, bus._next_free_any),
        [(b.live, b.next_line, b.last_used_cycle,
          [(e.line_addr, e.ready_cycle) for e in b.queue])
         for b in h.prefetcher.buffers],
    )


def run_lockstep(ops):
    """Drive ``ops`` — (kind, L1D line, cycles since the previous op) —
    through two hierarchies: one takes every access down the full
    ``data_access`` walk, the other tries ``data_hit_cycle`` first.
    Asserts equal ready cycles and equal state after every op; returns
    the levels the accesses were served from."""
    full, fast = lockstep_hierarchy(), lockstep_hierarchy()
    levels = set()
    cycle = 0
    for kind, line, gap in ops:
        cycle += gap
        if kind == "retire":
            assert ([m.line_addr for m in retire(fast, cycle)]
                    == [m.line_addr for m in retire(full, cycle)])
        else:
            addr = line * 64 + 8 * (line % 8)
            is_store = kind == "store"
            want = full.data_access(addr, cycle, is_store)
            levels.add(want.level)
            got = fast.data_hit_cycle(addr, cycle, is_store)
            assert (got is not None) == (want.level == L1)
            if got is None:
                got = fast.data_access(addr, cycle, is_store).ready_cycle
            assert got == want.ready_cycle
        assert hierarchy_state(fast) == hierarchy_state(full)
    return levels


#: Half the accesses go to eight hot lines, which exactly fill the
#: lockstep L1D, so L1 hits (the fast path's only arm) are common; the
#: rest spread over 160 lines and keep evicting.
_ops = st.lists(
    st.tuples(st.sampled_from(("load", "store", "retire")),
              st.one_of(st.integers(min_value=0, max_value=7),
                        st.integers(min_value=0, max_value=159)),
              st.integers(min_value=0, max_value=60)),
    min_size=1, max_size=150,
)


@settings(max_examples=200, deadline=None)
@given(_ops)
def test_data_hit_cycle_matches_data_access(ops):
    run_lockstep(ops)


def test_lockstep_stream_reaches_every_level():
    """The lockstep geometry is small enough that a random stream
    exercises every arm of the walk, not only L1 hits."""
    rng = random.Random(2009)
    ops = [(rng.choice(("load", "load", "store", "retire")),
            rng.randrange(160) if rng.random() < 0.7 else rng.randrange(8),
            rng.randrange(40))
           for _ in range(600)]
    assert run_lockstep(ops) == {L1, VICTIM, PENDING, L2, STREAM, MEMORY,
                                 STALL}
