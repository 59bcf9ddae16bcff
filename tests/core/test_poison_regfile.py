"""Unit tests for poison allocation and the checkpointed register file."""

import pytest

from repro.core.poison import PoisonAllocator
from repro.core.regfile import NO_WRITER, MainRegFile
from repro.memory.mshr import MSHR


def mshr(line=1):
    return MSHR(line_addr=line, ready_cycle=100)


# ----------------------------------------------------------------------
# poison allocator
# ----------------------------------------------------------------------
def test_round_robin_bits():
    pa = PoisonAllocator(4)
    masks = [pa.bit_for(mshr(i)) for i in range(6)]
    assert masks == [1, 2, 4, 8, 1, 2]  # wraps around


def test_same_mshr_same_bit():
    pa = PoisonAllocator(8)
    m = mshr()
    assert pa.bit_for(m) == pa.bit_for(m) == 1
    assert pa.bit_for(mshr(2)) == 2  # the round-robin moved only once


def test_single_bit_allocator():
    pa = PoisonAllocator(1)
    assert pa.bit_for(mshr(1)) == 1
    assert pa.bit_for(mshr(2)) == 1
    assert pa.full_mask == 1


def test_mask_of_returned():
    pa = PoisonAllocator(8)
    a, b, c = mshr(1), mshr(2), mshr(3)
    pa.bit_for(a)
    pa.bit_for(b)
    assert pa.mask_of_returned([a, b]) == 0b11
    assert pa.mask_of_returned([c]) == 0  # never poisoned
    assert pa.mask_of_returned([]) == 0


def test_rejects_zero_bits():
    with pytest.raises(ValueError):
        PoisonAllocator(0)


# ----------------------------------------------------------------------
# main register file
# ----------------------------------------------------------------------
def read(rf, reg):
    """(value, poison_mask) of ``reg``."""
    return rf.values[reg], rf.poison[reg]


def test_normal_write_and_read():
    rf = MainRegFile()
    rf.write_normal(3, 42)
    assert read(rf, 3) == (42, 0)


def test_r0_writes_dropped():
    rf = MainRegFile()
    rf.write_normal(0, 99)
    rf.write_advance(0, 99, seq=1)
    assert read(rf, 0) == (0, 0)
    assert rf.last_writer[0] == NO_WRITER


def test_checkpoint_restore():
    rf = MainRegFile()
    rf.write_normal(1, 10)
    rf.checkpoint()
    rf.write_advance(1, 20, seq=0)
    rf.write_advance(2, 30, seq=1, poison_mask=0b1)
    rf.restore()
    assert read(rf, 1) == (10, 0)
    assert read(rf, 2) == (0, 0)
    rf.checkpoint()  # the restore dropped the old one: a new one is taken


def test_checkpoint_release_keeps_advance_state():
    rf = MainRegFile()
    rf.write_normal(1, 10)
    rf.checkpoint()
    rf.write_advance(1, 20, seq=0)
    rf.release()
    assert read(rf, 1) == (20, 0)
    assert rf.last_writer[1] == NO_WRITER  # seq tracking resets


def test_double_checkpoint_rejected():
    rf = MainRegFile()
    rf.checkpoint()
    with pytest.raises(RuntimeError):
        rf.checkpoint()


def test_restore_without_checkpoint_rejected():
    rf = MainRegFile()
    with pytest.raises(RuntimeError):
        rf.restore()
    with pytest.raises(RuntimeError):
        rf.release()


def test_advance_write_poisoned_keeps_old_value():
    rf = MainRegFile()
    rf.write_normal(4, 7)
    rf.checkpoint()
    rf.write_advance(4, None, seq=3, poison_mask=0b10)
    value, poison = read(rf, 4)
    assert value == 7  # stale but poisoned
    assert poison == 0b10
    assert rf.last_writer[4] == 3
    assert rf.any_poisoned()


def test_rally_write_gated_by_last_writer():
    """The WAW guard of Figure 3: older slice writers are suppressed."""
    rf = MainRegFile()
    rf.checkpoint()
    rf.write_advance(3, None, seq=0, poison_mask=0b1)  # sliced load
    rf.write_advance(3, 33, seq=6)                     # younger commit
    assert not rf.write_rally(3, 9, seq=0)             # suppressed
    assert read(rf, 3) == (33, 0)


def test_rally_write_lands_when_last_writer_matches():
    rf = MainRegFile()
    rf.checkpoint()
    rf.write_advance(4, None, seq=8, poison_mask=0b10)
    assert rf.write_rally(4, 12, seq=8)
    assert read(rf, 4) == (12, 0)
    assert not rf.any_poisoned()
