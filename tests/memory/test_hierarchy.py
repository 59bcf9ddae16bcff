"""Unit tests for the assembled memory hierarchy."""

import pytest

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
    h.retire_mshrs(r.ready_cycle)
    r2 = h.data_access(0x2000, cycle=r.ready_cycle)
    assert r2.level == L1
    assert r2.ready_cycle == r.ready_cycle + 3


def test_l2_hit_latency_composition():
    h = tiny_hierarchy()
    r = h.data_access(0x2000, cycle=0)
    h.retire_mshrs(r.ready_cycle)
    # Evict the L1 line by touching two same-set lines; L1 has 4 sets of 64B.
    same_set = [0x2000 + 4 * 64, 0x2000 + 8 * 64]
    for addr in same_set:
        rr = h.data_access(addr, cycle=r.ready_cycle)
        h.retire_mshrs(rr.ready_cycle + 1000)
    # Push the victim line out of the 2-entry victim buffer.
    more = [0x2000 + 12 * 64, 0x2000 + 16 * 64, 0x2000 + 20 * 64]
    t = 10_000
    for addr in more:
        rr = h.data_access(addr, cycle=t)
        h.retire_mshrs(rr.ready_cycle + 1000)
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
    assert h.secondary_misses == 1


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
        h.retire_mshrs(t)
    # 0x0 was evicted into the victim buffer.
    r = h.data_access(0x0, cycle=t)
    assert r.level == VICTIM
    assert r.ready_cycle == t + 3 + 1


def test_store_marks_line_dirty_and_writeback_traffic():
    h = tiny_hierarchy()
    r = h.data_access(0x2000, cycle=0, is_store=True)
    h.retire_mshrs(r.ready_cycle)
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
        h.retire_mshrs(t)
    assert levels[0] == MEMORY
    assert STREAM in levels[1:]


def test_ifetch_path_and_inclusion():
    h = tiny_hierarchy()
    r = h.fetch_access(0x1000, cycle=0)
    assert r.level == MEMORY
    h.retire_mshrs(r.ready_cycle)
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
    h.retire_mshrs(t)
    assert h.l1i.probe(code_pc // l1i_line)
    stride = 16 * 128
    for i in (0, 1, 3, 4, 5):
        r = h.data_access(i * stride, cycle=t)
        t = r.ready_cycle + 1
        h.retire_mshrs(t)
    # Both left the L2; inclusion dropped their L1 copies, whatever
    # each L1's line size.
    assert not h.l2.probe(code_pc // 128)
    assert not h.l1i.probe(code_pc // l1i_line)
    assert not h.l1d.probe(0)
    assert not h.l2.probe(0)


def test_flush_line():
    h = tiny_hierarchy()
    r = h.data_access(0x2000, cycle=0)
    h.retire_mshrs(r.ready_cycle)
    assert h.flush_line(0x2000)
    assert not h.flush_line(0x2000)
    r2 = h.data_access(0x2000, cycle=r.ready_cycle + 10)
    assert r2.level in (L2, VICTIM)


def test_retire_returns_completed_fills():
    h = tiny_hierarchy()
    r = h.data_access(0x2000, cycle=0)
    assert h.retire_mshrs(r.ready_cycle - 1) == []
    done = h.retire_mshrs(r.ready_cycle)
    assert [m.line_addr for m in done] == [0x2000 // 64]


def test_outstanding_demand_misses():
    h = tiny_hierarchy()
    h.data_access(0x2000, cycle=0)
    h.data_access(0x8000, cycle=0)
    assert h.outstanding_demand_misses(0) == 2
    assert h.outstanding_demand_misses(10_000) == 0
