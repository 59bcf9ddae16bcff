"""Unit tests for the builder and text assemblers."""

import pytest

from repro.isa import (
    Assembler,
    AssemblyError,
    Opcode,
    OpClass,
    R,
    assemble_text,
    pc_of,
)


def test_builder_simple_loop():
    a = Assembler("loop")
    a.li(R.r1, 0x2000)
    a.li(R.r2, 0x2040)
    a.label("loop")
    a.ld(R.r3, R.r1, 0)
    a.addi(R.r1, R.r1, 8)
    a.bne(R.r1, R.r2, "loop")
    a.halt()
    prog = a.assemble()
    assert len(prog) == 6
    assert prog.labels["loop"] == 2
    assert pc_of(prog.labels["loop"]) == pc_of(2)
    assert prog.instructions[2].op is Opcode.LD
    assert prog.instructions[4].target == "loop"


def test_builder_duplicate_label_rejected():
    a = Assembler()
    a.label("x")
    a.nop()
    with pytest.raises(AssemblyError):
        a.label("x")


def test_builder_undefined_label_rejected():
    a = Assembler()
    a.j("nowhere")
    with pytest.raises(AssemblyError):
        a.assemble()


def test_builder_data_words():
    a = Assembler()
    a.words(0x1000_0, [1, 2, 3])
    a.word(0x2000_0, 9)
    a.halt()
    prog = a.assemble()
    assert prog.data[0x1000_0] == 1
    assert prog.data[0x1000_0 + 16] == 3
    assert prog.data[0x2000_0] == 9


def test_store_operand_order():
    """For stores, srcs = (base, data) so dependence tracking can tell
    address inputs from data inputs."""
    a = Assembler()
    a.st(R.r5, R.r9, 16)
    inst = a.assemble().instructions[0]
    assert inst.srcs == (R.r9, R.r5)
    assert inst.imm == 16


def test_fmadd_three_sources():
    a = Assembler()
    a.fmadd(R.f0, R.f1, R.f2, R.f3)
    inst = a.assemble().instructions[0]
    assert inst.srcs == (R.f1, R.f2, R.f3)
    assert inst.opclass is OpClass.FP_MUL


def test_text_assembler_parses_program():
    prog = assemble_text(
        """
        # simple strided sum
        li r1, 0x2000
        li r2, 0
        li r4, 0x2080
        loop:
            ld r3, r1, 0
            add r2, r2, r3
            addi r1, r1, 8
            bne r1, r4, loop
        halt
        """
    )
    assert prog.labels["loop"] == 3
    assert prog.instructions[3].op is Opcode.LD
    assert prog.instructions[-1].op is Opcode.HALT


def test_text_assembler_label_on_same_line():
    prog = assemble_text("start: nop\n j start")
    assert prog.labels["start"] == 0
    assert prog.instructions[1].op is Opcode.J


def test_text_assembler_rejects_unknown_mnemonic():
    with pytest.raises(AssemblyError):
        assemble_text("frobnicate r1, r2")


def test_text_assembler_rejects_bad_operand():
    with pytest.raises(AssemblyError):
        assemble_text("add r1, r2")  # missing operand


def test_text_all_alu_forms():
    prog = assemble_text(
        """
        add r1, r2, r3
        sub r1, r2, r3
        and r1, r2, r3
        or  r1, r2, r3
        xor r1, r2, r3
        slt r1, r2, r3
        shl r1, r2, r3
        shr r1, r2, r3
        mul r1, r2, r3
        addi r1, r2, -5
        andi r1, r2, 0xff
        ori  r1, r2, 0x10
        slti r1, r2, 7
        shli r1, r2, 3
        fadd f1, f2, f3
        fsub f1, f2, f3
        fmul f1, f2, f3
        fmadd f1, f2, f3, f4
        cvtif f1, r2
        cvtfi r1, f2
        ldf f1, r2, 8
        stf f1, r2, 8
        jal r31, end
        jr r31
        end: halt
        """
    )
    assert len(prog) == 25


def test_listing_contains_labels_and_pcs():
    a = Assembler()
    a.label("entry")
    a.nop()
    a.halt()
    listing = a.assemble().listing()
    assert "entry:" in listing
    assert "0x1000" in listing
