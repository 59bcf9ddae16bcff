"""Unit tests for the slice buffer."""

import pytest

from repro.core.slice_buffer import SliceBuffer, SliceEntry
from repro.functional.trace import DynInst
from repro.isa.instructions import Instruction, Opcode


def dyn(i=0):
    return DynInst(i, 0x1000 + 4 * i, Instruction(Opcode.ADD, dst=1, srcs=(2, 3)))


def entry(seq, poison=0b1):
    return SliceEntry(dyn(seq), seq, {}, poison, ssn_limit=0)


def test_append_and_order():
    sb = SliceBuffer(4)
    sb.append(entry(0))
    sb.append(entry(3))
    assert len(sb) == 2
    assert [e.seq for e in sb.entries()] == [0, 3]


def test_program_order_enforced():
    sb = SliceBuffer(4)
    sb.append(entry(5))
    with pytest.raises(ValueError):
        sb.append(entry(5))
    with pytest.raises(ValueError):
        sb.append(entry(2))


def test_capacity_overflow():
    sb = SliceBuffer(2)
    sb.append(entry(0))
    sb.append(entry(1))
    assert sb.full
    with pytest.raises(OverflowError):
        sb.append(entry(2))
    assert [e.seq for e in sb.entries()] == [0, 1]
    assert all(e.active for e in sb.entries())


def test_sparse_unpoisoning_and_reclaim():
    """Processed entries are un-poisoned in place; head reclaim frees
    only the leading processed run (the paper's sparse slice buffer)."""
    sb = SliceBuffer(8)
    for seq in range(4):
        sb.append(entry(seq))
    entries = list(sb.entries())
    entries[1].active = False  # processed mid-buffer: not reclaimable
    assert sb.reclaim_head() == 0
    assert len(sb) == 4
    entries[0].active = False
    assert sb.reclaim_head() == 2  # seq 0 and the already-done seq 1
    assert [e.seq for e in sb.entries()] == [2, 3]


def test_pending_poison_is_the_union_over_active_entries():
    sb = SliceBuffer(8)
    sb.append(entry(0, poison=0b001))
    sb.append(entry(1, poison=0b010))
    sb.append(entry(2, poison=0b110))
    assert sb.pending_poison() == 0b111
    sb.deactivate(sb.entries()[0])
    assert sb.pending_poison() == 0b110
    sb.deactivate(sb.entries()[2])
    assert sb.pending_poison() == 0b010


def test_repoisoning_an_entry():
    """Re-circulation re-poisons the existing slot (no re-enqueue)."""
    sb = SliceBuffer(4)
    sb.append(entry(0, poison=0b01))
    e = sb.entries()[0]
    e.poison = 0b10  # miss 0 returned but a dependent miss is pending
    assert sb.pending_poison() == 0b10
    assert len(sb) == 1


def test_flush():
    sb = SliceBuffer(4)
    sb.append(entry(0))
    sb.append(entry(1))
    assert sb.flush() == 2
    assert sb.empty
