"""Functional executor: runs programs and materialises dynamic traces.

Trace building decodes each static instruction once.  Construction turns
every instruction into one flat record: a small-int opcode, its operand
registers, immediate, resolved branch target, op class and the
classification flags each :class:`DynInst` carries.  :meth:`run` and
:meth:`step` share one interpreter loop that dispatches on the small-int
code (the suite's most frequent opcodes first) and fills each record's
slots directly, so a dynamic instruction costs its operand reads, its
operation and its record, never a re-derivation of what the static
instruction is.
"""

from __future__ import annotations

from ..isa.instructions import Opcode
from ..isa.program import CODE_BASE, INST_BYTES, Program, pc_of
from .state import ArchState, to_signed64
from .trace import DynInst, Trace, classify


class ExecutionError(RuntimeError):
    """Raised on invalid execution (bad PC, unaligned access, ...)."""


#: Every opcode with the number of source registers it reads, in
#: dispatch order: an opcode's small-int code is its position here, and
#: the interpreter loop tests codes by these numbers.  Each group lists
#: the suite's most frequent opcodes first.
_DISPATCH = (
    # register writers (0-23)
    (Opcode.FADD, 2), (Opcode.ADDI, 1), (Opcode.ADD, 2), (Opcode.FMUL, 2),
    (Opcode.ANDI, 1), (Opcode.MUL, 2), (Opcode.LD, 1), (Opcode.LDF, 1),
    (Opcode.SHR, 2), (Opcode.SUB, 2), (Opcode.LUI, 0), (Opcode.FMADD, 3),
    (Opcode.AND, 2), (Opcode.OR, 2), (Opcode.XOR, 2), (Opcode.SLT, 2),
    (Opcode.SHL, 2), (Opcode.ORI, 1), (Opcode.SLTI, 1), (Opcode.SHLI, 1),
    (Opcode.FSUB, 2), (Opcode.CVTIF, 1), (Opcode.CVTFI, 1), (Opcode.JAL, 0),
    # conditional branches (24-27)
    (Opcode.BNE, 2), (Opcode.BLT, 2), (Opcode.BEQ, 2), (Opcode.BGE, 2),
    # the rest (28-33)
    (Opcode.STF, 2), (Opcode.ST, 2), (Opcode.J, 0), (Opcode.JR, 1),
    (Opcode.HALT, 0), (Opcode.NOP, 0),
)
_CODE = {op: (code, arity) for code, (op, arity) in enumerate(_DISPATCH)}
#: Opcodes whose record carries a label resolved at decode.
_LABELLED = frozenset({Opcode.BNE, Opcode.BLT, Opcode.BEQ, Opcode.BGE,
                       Opcode.J, Opcode.JAL})
#: The code of an instruction decode rejected (unknown opcode, missing
#: source operands, unresolved label); it raises only when executed.
_REJECTED = len(_DISPATCH)


def _decode(program: Program) -> list[tuple]:
    """One flat record per static instruction, in program order."""
    labels = program.labels
    records = []
    for inst in program.instructions:
        op = inst.op
        code, arity = _CODE.get(op, (_REJECTED, 0))
        srcs = inst.srcs
        nsrc = len(srcs)
        target_pc = None
        if nsrc < arity:
            code = _REJECTED
        elif op in _LABELLED:
            if inst.target in labels:
                target_pc = pc_of(labels[inst.target])
            else:
                code = _REJECTED
        opclass = inst.opclass if op in _CODE else None
        records.append((code, inst, op, opclass, srcs, nsrc,
                        srcs[0] if nsrc else 0, srcs[1] if nsrc > 1 else 0,
                        inst.dst, inst.imm, target_pc) + classify(opclass))
    return records


def _reject(inst) -> None:
    """Raise the error for an instruction decode did not accept."""
    known = _CODE.get(inst.op)
    if known is None:
        raise ExecutionError(f"unimplemented opcode: {inst.op}")
    if len(inst.srcs) < known[1]:
        raise ExecutionError(f"{inst.op.value} reads {known[1]} source "
                             f"registers, has {len(inst.srcs)}")
    raise KeyError(inst.target)  # unresolved label


class FunctionalExecutor:
    """Interprets programs over :class:`ArchState`.

    The executor is the golden reference: every timing model's committed
    architectural state is compared against :attr:`state` after a run.
    """

    def __init__(self, program: Program, initial_state: ArchState | None = None) -> None:
        self.program = program
        self.state = initial_state if initial_state is not None else ArchState()
        if initial_state is None:
            self.state.memory.update(program.data)
        self.pc = CODE_BASE
        self.halted = False
        self.dynamic_count = 0
        self._decoded = _decode(program)

    # ------------------------------------------------------------------
    def step(self) -> DynInst:
        """Execute one instruction, returning its dynamic record."""
        if self.halted:
            raise ExecutionError("program already halted")
        return self._run(1)[0]

    def run(self, max_instructions: int = 1_000_000) -> Trace:
        """Run to ``halt`` or until ``max_instructions``; return the trace."""
        return Trace(
            program=self.program,
            insts=self._run(max_instructions),
            final_state=self.state.copy(),
            completed=self.halted,
        )

    # ------------------------------------------------------------------
    def _run(self, budget: int) -> list[DynInst]:
        """Execute up to ``budget`` instructions, stopping after ``halt``.

        On an error, :attr:`pc` stays on the faulting instruction and
        :attr:`dynamic_count` counts it unless its PC was out of range.
        """
        insts: list[DynInst] = []
        if self.halted:
            return insts
        decoded = self._decoded
        size = len(decoded)
        regs = self.state.regs
        memory = self.state.memory
        load = memory.get
        wrap = to_signed64
        new = DynInst.__new__
        append = insts.append
        base = CODE_BASE
        inst_bytes = INST_BYTES
        pc = self.pc
        index = self.dynamic_count
        stop = index + budget
        try:
            while index < stop:
                slot = (pc - base) // inst_bytes
                if not 0 <= slot < size:
                    raise ExecutionError(f"PC out of range: {pc:#x}")
                (code, inst, op, opclass, srcs, nsrc, s0, s1, dst, imm, target,
                 is_load, is_store, is_mem, is_branch,
                 is_control) = decoded[slot]
                dyn = new(DynInst)
                dyn.index = index
                index += 1
                dyn.pc = pc
                dyn.inst = inst
                dyn.op = op
                dyn.opclass = opclass
                dyn.srcs = srcs
                dyn.dst = dst
                dyn.is_load = is_load
                dyn.is_store = is_store
                dyn.is_mem = is_mem
                dyn.is_branch = is_branch
                dyn.is_control = is_control
                if nsrc == 2:
                    a = regs[s0]
                    b = regs[s1]
                    dyn.src_vals = (a, b)
                elif nsrc == 1:
                    a = regs[s0]
                    dyn.src_vals = (a,)
                elif nsrc == 0:
                    dyn.src_vals = ()
                else:
                    vals = dyn.src_vals = tuple([regs[s] for s in srcs])
                    a, b, c = vals[0], vals[1], vals[2]
                result = addr = store_val = target_pc = None
                taken = False
                next_pc = pc + 4
                if code < 24:  # register writers
                    if code == 0:  # FADD
                        result = a + b
                    elif code == 1:  # ADDI
                        result = wrap(a + imm)
                    elif code == 2:  # ADD
                        result = wrap(a + b)
                    elif code == 3:  # FMUL
                        result = a * b
                    elif code == 4:  # ANDI
                        result = wrap(a & imm)
                    elif code == 5:  # MUL
                        result = wrap(a * b)
                    elif code == 6 or code == 7:  # LD, LDF
                        addr = wrap(a + imm)
                        if addr & 7:  # not word aligned
                            raise ValueError(
                                f"unaligned load address: {addr:#x}")
                        result = load(addr, 0)
                        if code == 7 and isinstance(result, int):
                            result = float(result)
                    elif code == 8:  # SHR
                        result = wrap((a & 0xFFFF_FFFF_FFFF_FFFF) >> (b & 63))
                    elif code == 9:  # SUB
                        result = wrap(a - b)
                    elif code == 10:  # LUI
                        result = wrap(imm)
                    elif code == 11:  # FMADD
                        result = a * b + c
                    elif code == 12:  # AND
                        result = wrap(a & b)
                    elif code == 13:  # OR
                        result = wrap(a | b)
                    elif code == 14:  # XOR
                        result = wrap(a ^ b)
                    elif code == 15:  # SLT
                        result = 1 if a < b else 0
                    elif code == 16:  # SHL
                        result = wrap(a << (b & 63))
                    elif code == 17:  # ORI
                        result = wrap(a | imm)
                    elif code == 18:  # SLTI
                        result = 1 if a < imm else 0
                    elif code == 19:  # SHLI
                        result = wrap(a << (imm & 63))
                    elif code == 20:  # FSUB
                        result = a - b
                    elif code == 21:  # CVTIF
                        result = float(a)
                    elif code == 22:  # CVTFI
                        result = wrap(int(a))
                    else:  # JAL
                        result = next_pc  # the return address
                        taken = True
                        target_pc = next_pc = target
                    if dst != 0:  # r0 is hardwired to zero
                        regs[dst] = result
                elif code < 28:  # conditional branches
                    if code == 24:  # BNE
                        taken = a != b
                    elif code == 25:  # BLT
                        taken = a < b
                    elif code == 26:  # BEQ
                        taken = a == b
                    else:  # BGE
                        taken = a >= b
                    target_pc = target
                    if taken:
                        next_pc = target
                elif code == 28 or code == 29:  # STF, ST
                    addr = wrap(a + imm)
                    store_val = b
                    if addr & 7:
                        raise ValueError(f"unaligned store address: {addr:#x}")
                    memory[addr] = b
                elif code == 30:  # J
                    taken = True
                    target_pc = next_pc = target
                elif code == 31:  # JR
                    taken = True
                    target_pc = next_pc = a
                elif code == 32:  # HALT
                    self.halted = True
                    stop = index  # ends the loop after this record
                elif code != 33:  # not NOP: rejected at decode
                    _reject(inst)
                dyn.result = result
                dyn.addr = addr
                dyn.store_val = store_val
                dyn.taken = taken
                dyn.target_pc = target_pc
                dyn.next_pc = next_pc
                append(dyn)
                pc = next_pc
        finally:
            self.pc = pc
            self.dynamic_count = index
        return insts


def run_program(program: Program, max_instructions: int = 1_000_000) -> Trace:
    """Convenience wrapper: execute ``program`` and return its trace."""
    return FunctionalExecutor(program).run(max_instructions=max_instructions)
