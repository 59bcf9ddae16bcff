"""Unit tests for victim buffer, MSHR file, bus, and main memory."""

import pytest

from repro.memory import (Bus, MainMemory, MemoryHierarchy, MSHRFile,
                          MSHRFull, VictimBuffer)


# ----------------------------------------------------------------------
# victim buffer
# ----------------------------------------------------------------------
def test_victim_insert_and_extract():
    vb = VictimBuffer(2)
    assert vb.insert(1) is None
    assert vb.insert(2, dirty=True) is None
    assert vb.extract(2) == (2, True)
    assert vb.extract(2) is None  # removed on hit
    assert len(vb) == 1 and vb.probe(1)  # a miss leaves the rest


def test_victim_fifo_pushout():
    vb = VictimBuffer(2)
    vb.insert(1)
    vb.insert(2)
    pushed = vb.insert(3)
    assert pushed == (1, False)
    assert vb.probe(2) and vb.probe(3) and not vb.probe(1)


def test_victim_duplicate_insert_merges_dirty():
    vb = VictimBuffer(2)
    vb.insert(5)
    assert vb.insert(5, dirty=True) is None
    assert len(vb) == 1
    assert vb.extract(5) == (5, True)


def test_zero_capacity_victim_buffer():
    vb = VictimBuffer(0)
    assert vb.insert(1, dirty=True) == (1, True)
    assert vb.extract(1) is None


# ----------------------------------------------------------------------
# MSHRs
# ----------------------------------------------------------------------
def test_mshr_allocate_and_retire():
    f = MSHRFile(2)
    m = f.allocate(10, ready_cycle=100)
    assert f.get(10) is m
    assert f.retire_complete(99) == []
    assert f.retire_complete(100) == [m]
    assert f.get(10) is None


def test_mshr_full_raises():
    f = MSHRFile(1)
    f.allocate(1, 10)
    assert f.full
    with pytest.raises(MSHRFull):
        f.allocate(2, 5)
    assert len(f) == 1 and f.get(2) is None
    assert f.next_event_cycle() == 10  # the refused fill left no trace


def test_mshr_duplicate_allocation_rejected():
    f = MSHRFile(4)
    f.allocate(1, 10)
    with pytest.raises(ValueError):
        f.allocate(1, 20)


def test_mshr_outstanding_demand_excludes_prefetch():
    f = MSHRFile(4)
    f.allocate(1, 100)
    f.allocate(3, 50)
    assert f.outstanding_demand(0) == 2
    assert f.outstanding_demand(60) == 1
    assert f.outstanding_demand(100) == 0
    # Stream prefetches hold stream-buffer slots, never MSHRs: a cold
    # miss that trains a stream leaves one demand fill outstanding.
    h = MemoryHierarchy()
    h.data_access(0x10_0000, cycle=0)
    assert h.prefetcher.outstanding(0) == h.config.stream_depth
    assert h.mshrs.outstanding_demand(0) == 1


# ----------------------------------------------------------------------
# bus + main memory
# ----------------------------------------------------------------------
def test_bus_serialises_transfers():
    bus = Bus(32)
    assert bus.schedule(0) == 32
    assert bus.schedule(0) == 64  # second transfer waits for the first
    assert bus.schedule(100) == 132  # idle gap re-synchronises
    assert bus.next_free == 132
    assert bus.next_event_cycle(100) == 132
    assert bus.next_event_cycle(132) is None


def test_bus_rejects_bad_occupancy():
    with pytest.raises(ValueError):
        Bus(0)


def test_main_memory_latency_and_bandwidth():
    mem = MainMemory(latency=400, chunk_cycles=4, chunk_bytes=16, line_bytes=128)
    assert mem.line_occupancy == 32
    first = mem.read_line(0)
    assert first == 400
    # A burst of requests at cycle 0 is spaced by the 32-cycle bus.
    second = mem.read_line(0)
    third = mem.read_line(0)
    assert second == 432 and third == 464


def test_main_memory_mlp_bound_is_about_12():
    """Section 5.1: 400-cycle latency / 32-cycle occupancy -> L2 MLP ~ 12."""
    mem = MainMemory()
    ready = [mem.read_line(0) for _ in range(20)]
    # Number of fills completing within the first 400+32 cycles:
    overlapped = sum(1 for r in ready if r <= 400 + 32)
    assert overlapped == 2  # bus spacing dominates beyond the latency window
    assert ready[12] - ready[0] == 12 * 32


def test_writebacks_queue_behind_demand_traffic():
    mem = MainMemory()
    fill = mem.read_line(0)
    wb = mem.write_line(0)
    assert wb >= fill  # write-back yields to the demand fill
    # ... and takes the next whole bus slot after it.
    assert wb == fill + mem.line_occupancy == mem.bus.next_free


def test_demand_fills_unaffected_by_writeback_burst():
    mem = MainMemory()
    for _ in range(13):
        mem.write_line(0)
    assert mem.read_line(0) == 400
