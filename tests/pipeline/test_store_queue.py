"""Unit tests for the conventional associative store queue."""

import pytest

from repro.memory import HierarchyConfig, MemoryHierarchy
from repro.pipeline import StoreQueue


def hierarchy():
    return MemoryHierarchy(HierarchyConfig.hpca09())


def test_push_and_capacity():
    q = StoreQueue(2)
    q.push(0x100, 1)
    q.push(0x108, 2)
    assert q.full and len(q) == 2
    with pytest.raises(OverflowError):
        q.push(0x110, 3)


def test_forward_youngest_match():
    q = StoreQueue(4)
    q.push(0x100, 1)
    q.push(0x100, 2)
    entry = q.forward(0x100)
    assert entry.value == 2
    assert q.forward(0x200) is None


def test_drain_writes_memory_image_in_order():
    q = StoreQueue(4)
    h = hierarchy()
    h.l1d.insert(h.config.l1d.line_addr(0x100))  # warm: drains hit
    q.push(0x100, 7)
    q.push(0x108, 8)
    mem = {}
    cycle = 0
    while not q.empty:
        q.drain_step(h, cycle, mem)
        cycle += 1
        assert cycle < 100
    assert mem == {0x100: 7, 0x108: 8}


def test_drain_respects_miss_latency():
    q = StoreQueue(4)
    h = hierarchy()
    q.push(0x100, 7)  # cold line: the drain launches a long fill
    assert not q.drain_step(h, 0, {})
    head = q.head()
    assert head.drain_ready is not None and head.drain_ready > 100


def test_flush_discards_everything():
    q = StoreQueue(4)
    q.push(0x100, 1)
    q.push(0x108, 2)
    assert q.flush() == 2
    assert q.empty


def test_next_event_reports_drain_time():
    q = StoreQueue(4)
    h = hierarchy()
    assert q.next_event_cycle(0) is None
    q.push(0x100, 1)
    assert q.next_event_cycle(0) == 1  # not yet launched: try next cycle
    q.drain_step(h, 0, {})
    assert q.next_event_cycle(0) == q.head().drain_ready
