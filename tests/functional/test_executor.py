"""Unit tests for the functional executor."""

import pytest

from repro.functional import ArchState, ExecutionError, FunctionalExecutor, run_program
from repro.isa import Assembler, Instruction, Opcode, Program, R, assemble_text, pc_of


def run_text(text, max_instructions=10_000):
    return run_program(assemble_text(text), max_instructions=max_instructions)


def test_alu_arithmetic():
    trace = run_text(
        """
        li r1, 7
        li r2, 5
        add r3, r1, r2
        sub r4, r1, r2
        mul r5, r1, r2
        slt r6, r2, r1
        halt
        """
    )
    regs = trace.final_state.regs
    assert regs[R.r3] == 12
    assert regs[R.r4] == 2
    assert regs[R.r5] == 35
    assert regs[R.r6] == 1


def test_64bit_wraparound():
    trace = run_text(
        """
        li r1, 0x7fffffffffffffff
        addi r2, r1, 1
        halt
        """
    )
    assert trace.final_state.regs[R.r2] == -(1 << 63)


def test_logical_and_shift_ops():
    trace = run_text(
        """
        li r1, 0b1100
        li r2, 0b1010
        and r3, r1, r2
        or  r4, r1, r2
        xor r5, r1, r2
        shli r6, r1, 2
        li r7, 1
        shr r8, r1, r7
        halt
        """
    )
    regs = trace.final_state.regs
    assert regs[R.r3] == 0b1000
    assert regs[R.r4] == 0b1110
    assert regs[R.r5] == 0b0110
    assert regs[R.r6] == 0b110000
    assert regs[R.r8] == 0b0110


def test_r0_is_hardwired_zero():
    trace = run_text(
        """
        li r0, 99
        addi r1, r0, 3
        halt
        """
    )
    assert trace.final_state.regs[0] == 0
    assert trace.final_state.regs[R.r1] == 3


def test_memory_round_trip():
    trace = run_text(
        """
        li r1, 0x2000
        li r2, 42
        st r2, r1, 0
        ld r3, r1, 0
        halt
        """
    )
    assert trace.final_state.regs[R.r3] == 42
    assert trace.final_state.memory[0x2000] == 42


def test_unaligned_access_raises():
    with pytest.raises(ValueError):
        run_text(
            """
            li r1, 0x2001
            ld r2, r1, 0
            halt
            """
        )


def test_load_from_program_data():
    a = Assembler()
    a.words(0x3000, [10, 20, 30])
    a.li(R.r1, 0x3000)
    a.ld(R.r2, R.r1, 16)
    a.halt()
    trace = run_program(a.assemble())
    assert trace.final_state.regs[R.r2] == 30


def test_branch_taken_and_not_taken():
    trace = run_text(
        """
        li r1, 0
        li r2, 3
        loop:
            addi r1, r1, 1
            bne r1, r2, loop
        halt
        """
    )
    assert trace.final_state.regs[R.r1] == 3
    branches = [d for d in trace if d.is_branch]
    assert [b.taken for b in branches] == [True, True, False]


def test_branch_records_target_pc():
    trace = run_text(
        """
        li r1, 1
        beq r1, r0, skip
        nop
        skip: halt
        """
    )
    br = next(d for d in trace if d.is_branch)
    assert not br.taken
    assert br.target_pc == pc_of(3)
    assert br.next_pc == br.pc + 4


def test_jal_jr_round_trip():
    trace = run_text(
        """
        jal r31, func
        li r1, 1
        halt
        func:
            li r2, 2
            jr r31
        """
    )
    regs = trace.final_state.regs
    assert regs[R.r1] == 1
    assert regs[R.r2] == 2
    assert regs[R.r31] == pc_of(1)


def test_fp_ops_and_conversion():
    trace = run_text(
        """
        li r1, 3
        cvtif f1, r1
        fadd f2, f1, f1
        fmul f3, f2, f1
        fmadd f4, f1, f1, f2
        cvtfi r2, f3
        halt
        """
    )
    regs = trace.final_state.regs
    assert regs[R.f2] == 6.0
    assert regs[R.f3] == 18.0
    assert regs[R.f4] == 15.0
    assert regs[R.r2] == 18


def test_ldf_converts_int_memory_to_float():
    trace = run_text(
        """
        li r1, 0x2000
        li r2, 5
        st r2, r1, 0
        ldf f1, r1, 0
        halt
        """
    )
    assert trace.final_state.regs[R.f1] == 5.0


def test_trace_budget_truncation():
    trace = run_text(
        """
        loop: j loop
        """,
        max_instructions=25,
    )
    assert not trace.completed
    assert len(trace) == 25


def test_trace_dyninst_metadata():
    trace = run_text(
        """
        li r1, 0x2000
        li r2, 7
        st r2, r1, 8
        ld r3, r1, 8
        halt
        """
    )
    store = next(d for d in trace if d.is_store)
    load = next(d for d in trace if d.is_load)
    assert store.addr == 0x2008 and store.store_val == 7
    assert load.addr == 0x2008 and load.result == 7
    assert trace.num_loads == 1 and trace.num_stores == 1


def test_step_after_halt_raises():
    ex = FunctionalExecutor(assemble_text("halt"))
    ex.step()
    with pytest.raises(ExecutionError):
        ex.step()


def test_pc_out_of_range_raises():
    ex = FunctionalExecutor(assemble_text("nop"))
    ex.step()
    with pytest.raises(ExecutionError):
        ex.step()


def test_initial_state_injection():
    state = ArchState()
    state.write_reg(R.r1, 123)
    ex = FunctionalExecutor(assemble_text("addi r2, r1, 1\nhalt"), initial_state=state)
    trace = ex.run()
    assert trace.final_state.regs[R.r2] == 124


def test_footprint_helper():
    trace = run_text(
        """
        li r1, 0x2000
        ld r2, r1, 0
        ld r3, r1, 64
        ld r4, r1, 8
        halt
        """
    )
    assert trace.mem_footprint_lines(64) == 2


def test_pc_out_of_range_counts_nothing():
    ex = FunctionalExecutor(assemble_text("nop"))
    ex.step()
    with pytest.raises(ExecutionError, match="PC out of range: 0x1004"):
        ex.step()
    assert ex.dynamic_count == 1
    assert ex.pc == pc_of(1)


@pytest.mark.parametrize("text, message", [
    ("li r1, 0x2001\nld r2, r1, 0\nhalt", "unaligned load address: 0x2001"),
    ("li r1, 0x2004\nst r1, r1, 0\nhalt", "unaligned store address: 0x2004"),
])
def test_unaligned_access_stays_on_the_faulting_instruction(text, message):
    ex = FunctionalExecutor(assemble_text(text))
    with pytest.raises(ValueError, match=message):
        ex.run()
    assert ex.dynamic_count == 2
    assert ex.pc == pc_of(1)
    assert ex.state.regs[R.r2] == 0
    assert ex.state.memory == {}


def test_unknown_opcode_raises_when_executed():
    ex = FunctionalExecutor(Program(instructions=[Instruction(Opcode.NOP),
                                                  Instruction("bogus")]))
    ex.step()
    with pytest.raises(ExecutionError, match="unimplemented opcode"):
        ex.step()


def test_missing_source_operand_raises_when_executed():
    ex = FunctionalExecutor(Program(
        instructions=[Instruction(Opcode.ADD, dst=R.r1, srcs=(R.r2,))]))
    with pytest.raises(ExecutionError, match="reads 2 source registers"):
        ex.step()


def test_unresolved_label_raises_only_when_executed():
    unreached = [Instruction(Opcode.HALT), Instruction(Opcode.J, target="gone")]
    assert run_program(Program(instructions=unreached)).completed
    with pytest.raises(KeyError):
        run_program(Program(instructions=unreached[1:]))


def test_run_after_halt_returns_an_empty_trace():
    ex = FunctionalExecutor(assemble_text("halt"))
    ex.run()
    again = ex.run()
    assert len(again) == 0 and again.completed
