"""Unit tests for the Program container."""

import pytest

from repro.isa import Assembler, R, pc_of, index_of
from repro.isa.program import CODE_BASE, Program


def test_pc_index_round_trip():
    for i in (0, 1, 7, 1000):
        assert index_of(pc_of(i)) == i
    assert pc_of(0) == CODE_BASE


def test_label_pc_addresses_its_instruction():
    a = Assembler()
    a.nop()
    a.label("here")
    a.halt()
    prog = a.assemble()
    pc = pc_of(prog.labels["here"])
    assert pc == pc_of(1)
    assert prog.instructions[index_of(pc)].op.value == "halt"


def test_unaligned_data_rejected():
    with pytest.raises(ValueError):
        Program(data={0x1001: 5})


def test_hot_region_round_trip():
    a = Assembler()
    a.hot_region(0x1000_0, 0x2000_0)
    a.halt()
    prog = a.assemble()
    assert prog.hot_regions == ((0x1000_0, 0x2000_0),)


def test_default_hot_region_is_none():
    a = Assembler()
    a.halt()
    assert a.assemble().hot_regions == ()


def test_len_counts_instructions():
    a = Assembler()
    for _ in range(5):
        a.nop()
    a.halt()
    assert len(a.assemble()) == 6
