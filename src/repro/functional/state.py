"""Architectural state for functional execution.

State is deliberately simple: 48 flat registers (integer values are kept
as signed 64-bit, floating-point registers hold Python floats) and a
sparse word-granular memory image.  The timing models validate
themselves against this state — after any simulation, the merged
register file and drained memory must match a pure functional run.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..isa.registers import FP_BASE, NUM_REGS, ZERO_REG

_MASK64 = (1 << 64) - 1


def to_signed64(value: int) -> int:
    """Wrap an unbounded int to signed 64-bit two's complement."""
    value &= _MASK64
    if value >= 1 << 63:
        value -= 1 << 64
    return value


@dataclass
class ArchState:
    """Registers plus sparse data memory.

    ``regs[0]`` (``r0``) is hardwired to zero: writes are dropped (by
    :meth:`write_reg` and by the executor, which writes ``regs``
    directly) and the slot always reads zero.  Word alignment of loads
    and stores is the executor's check.
    """

    regs: list = field(default_factory=lambda: [0] * NUM_REGS)
    memory: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        for i in range(FP_BASE, NUM_REGS):
            if self.regs[i] == 0:
                self.regs[i] = 0.0

    def write_reg(self, reg: int, value) -> None:
        if reg == ZERO_REG:
            return
        self.regs[reg] = value

    def copy(self) -> "ArchState":
        return ArchState(regs=list(self.regs), memory=dict(self.memory))

