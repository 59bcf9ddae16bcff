"""Per-cycle issue-port tracking.

Table 1: "2-way superscalar, 2 integer, 1 fp/load/store/branch" — two
integer ALU/multiply ports plus a single shared port for floating
point, memory, and control instructions.
"""

from __future__ import annotations

from ..isa.instructions import OpClass

#: Port kind required by each op class.
INT_PORT = "int"
MEM_PORT = "mem"

_PORT_OF = {
    OpClass.INT_ALU: INT_PORT,
    OpClass.INT_MUL: INT_PORT,
    OpClass.NOP: INT_PORT,
    OpClass.HALT: INT_PORT,
    OpClass.FP_ADD: MEM_PORT,
    OpClass.FP_MUL: MEM_PORT,
    OpClass.LOAD: MEM_PORT,
    OpClass.STORE: MEM_PORT,
    OpClass.BRANCH: MEM_PORT,
    OpClass.JUMP: MEM_PORT,
}


def port_kind(opclass: OpClass) -> str:
    """Which port kind an op class issues to."""
    return _PORT_OF[opclass]


class PortSet:
    """Issue-port availability within a single cycle.

    The free counts are plain int slots (``int_free`` / ``mem_free``):
    each model's ``step_cycle`` refills them from the capacities, and
    its issue path reads and decrements them with the trace's
    precomputed per-instruction port flag (``TraceHot.port_int``).
    """

    __slots__ = ("int_capacity", "mem_capacity", "int_free", "mem_free")

    def __init__(self, int_ports: int, mem_ports: int) -> None:
        self.int_capacity = int_ports
        self.mem_capacity = mem_ports
        self.int_free = int_ports
        self.mem_free = mem_ports
