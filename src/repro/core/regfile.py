"""Register files for iCFP (Section 3.1 and Figure 3 of the paper).

The *main* register file (RF0) carries, per register:

* the architectural value,
* a poison vector (which in-flight misses the value depends on), and
* a *last-writer sequence number* — the distance-from-checkpoint of the
  youngest advance instruction that wrote the register.

Sequence numbers gate rally writes: a re-executing slice instruction
may update RF0 only if it still *is* the register's last writer;
otherwise a younger advance instruction already produced the
architecturally-latest value and the write would be a WAW violation
(Figure 3's first rally suppresses exactly such writes to r3/r4).

The paper re-executes slices against a *scratch* register file (RF1,
borrowed from the second SMT context).  This model binds rally inputs
per slice entry instead: each :class:`~repro.core.slice_buffer.SliceEntry`
holds the inputs that were ready at capture (``captured``) and names the
slice instruction producing each poisoned one (``producer_seq``).  A
rally binds such an input to its producer's ``result_value``, ready at
the producer's ``done_cycle``, or to RF0 once the producer has merged.
"""

from __future__ import annotations

from ..isa.registers import NUM_REGS, ZERO_REG

#: last_writer value meaning "not written since the checkpoint".
NO_WRITER = -1


class MainRegFile:
    """Checkpointed architectural register file with poison + seq fields."""

    def __init__(self) -> None:
        self.values: list = [0] * NUM_REGS
        self.poison: list[int] = [0] * NUM_REGS
        self.last_writer: list[int] = [NO_WRITER] * NUM_REGS
        self._checkpoint: list | None = None

    # ------------------------------------------------------------------
    # checkpoint management (single checkpoint, create/restore only)
    # ------------------------------------------------------------------
    def checkpoint(self) -> None:
        """Snapshot values (shadow bitcells); resets seq/poison tracking."""
        if self._checkpoint is not None:
            raise RuntimeError("checkpoint already active")
        self._checkpoint = list(self.values)
        self.poison = [0] * NUM_REGS
        self.last_writer = [NO_WRITER] * NUM_REGS

    def restore(self) -> None:
        """Squash: roll values back to the checkpoint, clear tracking."""
        if self._checkpoint is None:
            raise RuntimeError("no checkpoint to restore")
        self.values = list(self._checkpoint)
        self._checkpoint = None
        self.poison = [0] * NUM_REGS
        self.last_writer = [NO_WRITER] * NUM_REGS

    def release(self) -> None:
        """Commit: drop the checkpoint, advance state is architectural."""
        if self._checkpoint is None:
            raise RuntimeError("no checkpoint to release")
        self._checkpoint = None
        self.last_writer = [NO_WRITER] * NUM_REGS

    def any_poisoned(self) -> bool:
        return any(self.poison)

    # ------------------------------------------------------------------
    # writes
    # ------------------------------------------------------------------
    def write_normal(self, reg: int, value) -> None:
        """Plain in-order write (no checkpoint active)."""
        if reg == ZERO_REG:
            return
        self.values[reg] = value
        self.poison[reg] = 0

    def write_advance(self, reg: int, value, seq: int, poison_mask: int = 0) -> None:
        """Advance-mode writeback.

        All advance instructions — poisoned or not — stamp their seq as
        the register's last writer; only non-poisoned ones deposit a
        value.
        """
        if reg == ZERO_REG:
            return
        self.last_writer[reg] = seq
        self.poison[reg] = poison_mask
        if not poison_mask:
            self.values[reg] = value

    def write_rally(self, reg: int, value, seq: int, poison_mask: int = 0) -> bool:
        """Rally-mode merge, gated by the last-writer sequence number.

        Returns True if the write landed (this slice instruction is
        still the register's architecturally-youngest writer).
        """
        if reg == ZERO_REG:
            return False
        if self.last_writer[reg] != seq:
            return False  # younger writer exists: suppress (WAW guard)
        self.poison[reg] = poison_mask
        if not poison_mask:
            self.values[reg] = value
        return True
