"""SLTP — Simple Latency Tolerant Processor (Nekkalapu et al., ICCD 2008).

SLTP, like iCFP, commits miss-independent advance instructions and
defers miss-dependent slices; it differs in exactly the ways Section 4
of the paper calls out, each of which this model reproduces on top of
the shared advance/rally engine:

* **Single blocking rallies.**  One register file with two checkpoints
  and no last-writer tracking means the main register file can only be
  reconciled when the *entire* slice has re-executed: rallies stall at
  pending loads instead of re-poisoning them, and the tail cannot run
  during a rally (``nonblocking_rally=False, mt_rally=False``).
* **SRL-based data memory (Store Redo Log).**  Advance stores write a
  FIFO log *and* speculatively write the data cache (from which
  miss-independent loads forward for free).  When a rally begins, the
  speculatively-written lines are flushed (raising later miss rates —
  the galgel pathology) and the SRL must drain to the cache interleaved
  with slice re-execution; the tail resumes only after the drain
  completes.  Store->load poison propagation uses idealised memory
  dependence prediction (Table 1), which the associative-oracle lookup
  of the shared store buffer provides.
"""

from __future__ import annotations

from ..core.icfp import ADVANCE, ICFPCore, ICFPFeatures
from ..engine.base import ISSUED
from ..functional.trace import DynInst


def sltp_features(advance_on: str = "l2") -> ICFPFeatures:
    """The SLTP point in the engine's feature space."""
    return ICFPFeatures(
        store_buffer_kind="assoc",   # idealised dependence pred. + load queue
        nonblocking_rally=False,
        mt_rally=False,
        poison_bits=1,
        advance_on=advance_on,
    )


class SLTPCore(ICFPCore):
    """SLTP: blocking rallies + SRL memory system."""

    name = "sltp"

    def __init__(self, trace, config=None, advance_on: str = "l2",
                 **kwargs) -> None:
        super().__init__(trace, config=config,
                         features=sltp_features(advance_on), **kwargs)
        #: L1 lines written speculatively during the current episode.
        self._spec_lines: set[int] = set()
        self._flushed_this_episode = False

    # ------------------------------------------------------------------
    # SRL behaviours layered over the shared engine
    # ------------------------------------------------------------------
    def _advance_store(self, dyn: DynInst, src_poison: int) -> str:
        status = super()._advance_store(dyn, src_poison)
        if status is ISSUED and self.mode == ADVANCE:
            addr_poison = self.main_rf.poison[dyn.srcs[0]]
            if not addr_poison:
                # Speculative cache write: younger miss-independent loads
                # forward through the cache itself.
                result = self.hierarchy.data_access(dyn.addr, self.cycle,
                                                    is_store=True)
                if not result.stalled:
                    self._spec_lines.add(result.line_addr)
        return status

    def _start_rally_pass(self) -> None:
        if not self._flushed_this_episode and self._spec_lines:
            # SRL rule: speculatively-written lines cannot survive into
            # the rally; flush them (later accesses will miss).
            for line in self._spec_lines:
                self.hierarchy.l1d.invalidate(line)
            self._spec_lines.clear()
            self._flushed_this_episode = True
        super()._start_rally_pass()

    def _end_rally_pass(self) -> None:
        super()._end_rally_pass()
        # Slice re-execution is interleaved with the SRL drain in program
        # order, and the tail cannot resume until the drain completes:
        # charge one cycle per logged store still in the SRL.
        srl_occupancy = len(self.store_queue)
        if srl_occupancy:
            resume = self.cycle + srl_occupancy
            if resume > self.fetch_resume_cycle:
                self.fetch_resume_cycle = resume

    def _maybe_exit_advance(self) -> None:
        was_advance = self.mode == ADVANCE
        super()._maybe_exit_advance()
        if was_advance and self.mode != ADVANCE:
            self._spec_lines.clear()
            self._flushed_this_episode = False

    def _squash_to_checkpoint(self) -> None:
        for line in self._spec_lines:
            self.hierarchy.l1d.invalidate(line)
        self._spec_lines.clear()
        self._flushed_this_episode = False
        super()._squash_to_checkpoint()
