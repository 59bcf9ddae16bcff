"""Programmatic and textual assembler for the reproduction ISA.

Workload kernels build programs through the :class:`Assembler` builder
API::

    a = Assembler()
    a.label("loop")
    a.ld(R.r3, R.r1, 0)          # r3 <- mem[r1 + 0]
    a.addi(R.r1, R.r1, 8)
    a.bne(R.r1, R.r2, "loop")
    a.halt()
    prog = a.assemble()

A small text front-end (:func:`assemble_text`) accepts the same mnemonics
one-per-line, which keeps unit tests and examples readable.
"""

from __future__ import annotations

from contextlib import contextmanager

from .instructions import Instruction, Opcode
from .program import Program
from .registers import parse_reg


class AssemblyError(ValueError):
    """Raised for malformed assembly input or unresolved labels."""


class Assembler:
    """Builder-style assembler producing :class:`~repro.isa.program.Program`."""

    def __init__(self, name: str = "program") -> None:
        self._name = name
        self._instructions: list[Instruction] = []
        self._labels: dict[str, int] = {}
        self._data: dict[int, int | float] = {}
        self._hot_regions: list[tuple[int, int]] = []
        self._scope_prefix: str = ""
        self._halt_to: str | None = None

    # ------------------------------------------------------------------
    # structure
    # ------------------------------------------------------------------
    def label(self, name: str) -> "Assembler":
        """Attach ``name`` to the next emitted instruction."""
        name = self._scope_prefix + name
        if name in self._labels:
            raise AssemblyError(f"duplicate label: {name}")
        self._labels[name] = len(self._instructions)
        return self

    @contextmanager
    def subprogram(self, prefix: str, halt_to: str | None = None):
        """Emit a label-scoped subprogram (the phase composer's hook).

        Inside the block, every label defined *and referenced* gets
        ``prefix.`` prepended, so independently written code fragments
        (the workload archetype builders) can be concatenated into one
        program without label collisions.  When ``halt_to`` is given,
        :meth:`halt` emits a jump to that (unscoped) label instead of a
        HALT — which is how a finite phase falls through to its
        successor rather than ending the program.
        """
        outer_prefix, outer_halt = self._scope_prefix, self._halt_to
        self._scope_prefix = outer_prefix + prefix + "."
        self._halt_to = halt_to
        try:
            yield self
        finally:
            self._scope_prefix, self._halt_to = outer_prefix, outer_halt

    def word(self, addr: int, value: int | float) -> "Assembler":
        """Place an 8-byte ``value`` at data address ``addr``."""
        self._data[addr] = value
        return self

    def hot_region(self, lo: int, hi: int) -> "Assembler":
        """Declare [lo, hi) as a steady-state L1-resident range.

        May be called once per composed phase; warm-up pre-installs
        every declared range.
        """
        self._hot_regions.append((lo, hi))
        return self

    def words(self, addr: int, values) -> "Assembler":
        """Place consecutive 8-byte words starting at ``addr``."""
        for i, value in enumerate(values):
            self._data[addr + 8 * i] = value
        return self

    def emit(self, inst: Instruction) -> "Assembler":
        self._instructions.append(inst)
        return self

    def assemble(self) -> Program:
        """Validate label references and return the finished program."""
        for inst in self._instructions:
            if inst.target is not None and inst.target not in self._labels:
                raise AssemblyError(f"undefined label: {inst.target}")
        return Program(
            instructions=list(self._instructions),
            labels=dict(self._labels),
            data=dict(self._data),
            name=self._name,
            hot_regions=tuple(self._hot_regions),
            # Single whole-program phase region: every assembled program
            # reports one attribution bucket; the phase composer
            # replaces this with its per-phase map.
            phase_regions=((self._name, 0, len(self._instructions)),)
            if self._instructions else (),
        )

    # ------------------------------------------------------------------
    # integer ALU
    # ------------------------------------------------------------------
    def _rrr(self, op: Opcode, dst: int, a: int, b: int) -> "Assembler":
        return self.emit(Instruction(op, dst=dst, srcs=(a, b)))

    def _rri(self, op: Opcode, dst: int, a: int, imm: int) -> "Assembler":
        return self.emit(Instruction(op, dst=dst, srcs=(a,), imm=imm))

    def add(self, dst, a, b):
        return self._rrr(Opcode.ADD, dst, a, b)

    def sub(self, dst, a, b):
        return self._rrr(Opcode.SUB, dst, a, b)

    def and_(self, dst, a, b):
        return self._rrr(Opcode.AND, dst, a, b)

    def or_(self, dst, a, b):
        return self._rrr(Opcode.OR, dst, a, b)

    def xor(self, dst, a, b):
        return self._rrr(Opcode.XOR, dst, a, b)

    def slt(self, dst, a, b):
        return self._rrr(Opcode.SLT, dst, a, b)

    def shl(self, dst, a, b):
        return self._rrr(Opcode.SHL, dst, a, b)

    def shr(self, dst, a, b):
        return self._rrr(Opcode.SHR, dst, a, b)

    def mul(self, dst, a, b):
        return self._rrr(Opcode.MUL, dst, a, b)

    def addi(self, dst, a, imm):
        return self._rri(Opcode.ADDI, dst, a, imm)

    def andi(self, dst, a, imm):
        return self._rri(Opcode.ANDI, dst, a, imm)

    def ori(self, dst, a, imm):
        return self._rri(Opcode.ORI, dst, a, imm)

    def slti(self, dst, a, imm):
        return self._rri(Opcode.SLTI, dst, a, imm)

    def shli(self, dst, a, imm):
        return self._rri(Opcode.SHLI, dst, a, imm)

    def lui(self, dst, imm):
        """Load immediate: dst <- imm (full-width, despite the name)."""
        return self.emit(Instruction(Opcode.LUI, dst=dst, imm=imm))

    def li(self, dst, imm):
        """Alias of :meth:`lui` — load a full-width immediate."""
        return self.lui(dst, imm)

    # ------------------------------------------------------------------
    # floating point
    # ------------------------------------------------------------------
    def fadd(self, dst, a, b):
        return self._rrr(Opcode.FADD, dst, a, b)

    def fsub(self, dst, a, b):
        return self._rrr(Opcode.FSUB, dst, a, b)

    def fmul(self, dst, a, b):
        return self._rrr(Opcode.FMUL, dst, a, b)

    def fmadd(self, dst, a, b, c):
        """dst <- a * b + c (three-source fused multiply-add)."""
        return self.emit(Instruction(Opcode.FMADD, dst=dst, srcs=(a, b, c)))

    def cvtif(self, dst, a):
        return self.emit(Instruction(Opcode.CVTIF, dst=dst, srcs=(a,)))

    def cvtfi(self, dst, a):
        return self.emit(Instruction(Opcode.CVTFI, dst=dst, srcs=(a,)))

    # ------------------------------------------------------------------
    # memory
    # ------------------------------------------------------------------
    def ld(self, dst, base, disp=0):
        """dst <- mem[base + disp] (integer destination)."""
        return self.emit(Instruction(Opcode.LD, dst=dst, srcs=(base,), imm=disp))

    def ldf(self, dst, base, disp=0):
        """dst <- mem[base + disp] (floating-point destination)."""
        return self.emit(Instruction(Opcode.LDF, dst=dst, srcs=(base,), imm=disp))

    def st(self, data, base, disp=0):
        """mem[base + disp] <- data (integer source)."""
        return self.emit(Instruction(Opcode.ST, srcs=(base, data), imm=disp))

    def stf(self, data, base, disp=0):
        """mem[base + disp] <- data (floating-point source)."""
        return self.emit(Instruction(Opcode.STF, srcs=(base, data), imm=disp))

    # ------------------------------------------------------------------
    # control
    # ------------------------------------------------------------------
    def _branch(self, op: Opcode, a: int, b: int, target: str) -> "Assembler":
        return self.emit(Instruction(op, srcs=(a, b),
                                     target=self._scope_prefix + target))

    def beq(self, a, b, target):
        return self._branch(Opcode.BEQ, a, b, target)

    def bne(self, a, b, target):
        return self._branch(Opcode.BNE, a, b, target)

    def blt(self, a, b, target):
        return self._branch(Opcode.BLT, a, b, target)

    def bge(self, a, b, target):
        return self._branch(Opcode.BGE, a, b, target)

    def j(self, target):
        return self.emit(Instruction(Opcode.J,
                                     target=self._scope_prefix + target))

    def jal(self, dst, target):
        """Jump and link: dst <- return PC, jump to ``target``."""
        return self.emit(Instruction(Opcode.JAL, dst=dst,
                                     target=self._scope_prefix + target))

    def jr(self, src):
        """Indirect jump to the byte PC held in ``src``."""
        return self.emit(Instruction(Opcode.JR, srcs=(src,)))

    def halt(self):
        if self._halt_to is not None:
            # Subprogram mode: the phase ends by falling through to its
            # successor (an unscoped label), not by stopping the machine.
            return self.emit(Instruction(Opcode.J, target=self._halt_to))
        return self.emit(Instruction(Opcode.HALT))

    def nop(self):
        return self.emit(Instruction(Opcode.NOP))


# ----------------------------------------------------------------------
# text front-end
# ----------------------------------------------------------------------

_RRR = {"add", "sub", "and", "or", "xor", "slt", "shl", "shr", "mul",
        "fadd", "fsub", "fmul"}
_RRI = {"addi", "andi", "ori", "slti", "shli"}
_BR = {"beq", "bne", "blt", "bge"}


def assemble_text(text: str, name: str = "program") -> Program:
    """Assemble newline-separated assembly ``text`` into a program.

    Syntax, one instruction per line (``#`` starts a comment)::

        loop:                       # labels end with a colon
            ld   r3, r1, 0          # dst, base, disp
            addi r1, r1, 8
            bne  r1, r2, loop
            halt
    """
    a = Assembler(name=name)
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        while line.endswith(":") or ":" in line.split()[0]:
            label, _, rest = line.partition(":")
            a.label(label.strip())
            line = rest.strip()
            if not line:
                break
        if not line:
            continue
        _assemble_line(a, line, lineno)
    return a.assemble()


def _assemble_line(a: Assembler, line: str, lineno: int) -> None:
    mnemonic, _, operand_text = line.partition(" ")
    mnemonic = mnemonic.lower()
    ops = [tok.strip() for tok in operand_text.split(",") if tok.strip()]
    try:
        _dispatch(a, mnemonic, ops)
    except (ValueError, KeyError, IndexError) as exc:
        raise AssemblyError(f"line {lineno}: {line!r}: {exc}") from exc


def _dispatch(a: Assembler, mnemonic: str, ops: list[str]) -> None:
    if mnemonic in _RRR:
        method = {"and": "and_", "or": "or_"}.get(mnemonic, mnemonic)
        getattr(a, method)(parse_reg(ops[0]), parse_reg(ops[1]), parse_reg(ops[2]))
    elif mnemonic in _RRI:
        getattr(a, mnemonic)(parse_reg(ops[0]), parse_reg(ops[1]), int(ops[2], 0))
    elif mnemonic in ("lui", "li"):
        a.lui(parse_reg(ops[0]), int(ops[1], 0))
    elif mnemonic in ("ld", "ldf"):
        disp = int(ops[2], 0) if len(ops) > 2 else 0
        getattr(a, mnemonic)(parse_reg(ops[0]), parse_reg(ops[1]), disp)
    elif mnemonic in ("st", "stf"):
        disp = int(ops[2], 0) if len(ops) > 2 else 0
        getattr(a, mnemonic)(parse_reg(ops[0]), parse_reg(ops[1]), disp)
    elif mnemonic in _BR:
        getattr(a, mnemonic)(parse_reg(ops[0]), parse_reg(ops[1]), ops[2])
    elif mnemonic == "fmadd":
        a.fmadd(*(parse_reg(op) for op in ops))
    elif mnemonic in ("cvtif", "cvtfi"):
        getattr(a, mnemonic)(parse_reg(ops[0]), parse_reg(ops[1]))
    elif mnemonic == "j":
        a.j(ops[0])
    elif mnemonic == "jal":
        a.jal(parse_reg(ops[0]), ops[1])
    elif mnemonic == "jr":
        a.jr(parse_reg(ops[0]))
    elif mnemonic == "halt":
        a.halt()
    elif mnemonic == "nop":
        a.nop()
    else:
        raise AssemblyError(f"unknown mnemonic: {mnemonic}")
