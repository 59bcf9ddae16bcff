"""Program container: static code, resolved labels, and a data image."""

from __future__ import annotations

from dataclasses import dataclass, field

from .instructions import Instruction

#: Byte address of the first instruction.  A non-zero base keeps instruction
#: and data address spaces visibly distinct in traces and BTB indices.
CODE_BASE = 0x1000

#: Each instruction occupies 4 bytes of the (virtual) code space.
INST_BYTES = 4

#: Memory operations move 8-byte words.
WORD_BYTES = 8


def pc_of(index: int) -> int:
    """Byte PC of the static instruction at ``index``."""
    return CODE_BASE + index * INST_BYTES


def index_of(pc: int) -> int:
    """Static instruction index of byte PC ``pc``."""
    return (pc - CODE_BASE) // INST_BYTES


@dataclass
class Program:
    """An assembled program.

    Attributes
    ----------
    instructions:
        Static instruction list; instruction ``i`` lives at ``pc_of(i)``.
    labels:
        Label name -> static instruction index.
    data:
        Initial data-memory image, byte address -> 8-byte word value
        (``int`` or ``float``).  Addresses must be word aligned.
    name:
        Optional human-readable program name (workload kernels set this).
    """

    instructions: list[Instruction] = field(default_factory=list)
    labels: dict[str, int] = field(default_factory=dict)
    data: dict[int, int | float] = field(default_factory=dict)
    name: str = "program"
    #: Every declared [lo, hi) byte range that stays L1-resident in
    #: steady state, in declaration order: workload kernels declare
    #: their hot tables, composed multi-phase programs (``repro.wgen``)
    #: one per phase that declared one, and the timing models' warm-up
    #: pre-installs them all in the L1D.
    hot_regions: tuple[tuple[int, int], ...] = ()
    #: Static phase map: ``(name, lo_index, hi_index)`` half-open
    #: instruction-index ranges in ascending, contiguous order.  The
    #: assembler declares one whole-program region; the phase composer
    #: (:mod:`repro.wgen.compose`) declares one per phase.  Timing
    #: models bucket committed stats by these regions (observation
    #: only — never timing input), so the field is deliberately outside
    #: every fingerprint: job digests hash the workload reference, not
    #: this.
    phase_regions: tuple[tuple[str, int, int], ...] = ()

    def __post_init__(self) -> None:
        for addr in self.data:
            if addr % WORD_BYTES:
                raise ValueError(f"unaligned data address: {addr:#x}")

    def __len__(self) -> int:
        return len(self.instructions)

    def listing(self) -> str:
        """Disassembly listing with PCs and labels (debugging aid)."""
        by_index: dict[int, list[str]] = {}
        for label, idx in self.labels.items():
            by_index.setdefault(idx, []).append(label)
        lines = []
        for i, inst in enumerate(self.instructions):
            for label in by_index.get(i, ()):
                lines.append(f"{label}:")
            lines.append(f"  {pc_of(i):#06x}  {inst}")
        return "\n".join(lines)
