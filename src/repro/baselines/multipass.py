""""Flea-flicker" Multipass pipelining (Barnes, Ryoo & Hwu, MICRO 2005).

Multipass extends Runahead with a *result buffer*: advance passes save
the results of miss-independent instructions, and later passes over the
same region reuse them — a reused instruction's consumers need not wait
on its latency, so each pass runs faster ("breaking data-dependences
and increasing ILP").  Unlike SLTP/iCFP, every post-miss instruction is
still re-processed on every pass; reuse accelerates but does not skip.

Configuration per Section 5.1: advances under all L2 misses and under
*primary* data-cache misses; blocks on secondary data-cache misses.
"""

from __future__ import annotations

from ..engine.base import ISSUED, STALLED
from ..functional.trace import DynInst
from .runahead import RUNAHEAD, RunaheadCore


class MultipassCore(RunaheadCore):
    """Runahead with result reuse across passes."""

    name = "multipass"

    def __init__(self, trace, config=None, hierarchy=None, predictor=None,
                 advance_on: str = "l2_d1", result_buffer_entries: int = 128,
                 **kwargs) -> None:
        super().__init__(trace, config=config, hierarchy=hierarchy,
                         predictor=predictor, advance_on=advance_on, **kwargs)
        self.result_buffer_entries = result_buffer_entries
        #: dyn.index -> completion latency class reuse marker.
        self._results: set[int] = set()
        self.result_reuses = 0

    # ------------------------------------------------------------------
    def _head_wakeup(self, idx: int) -> int:
        """A reusable head waits for nothing but decode: the saved
        result breaks its data dependences (:meth:`_issue_reused` checks
        only port availability, which the leap never waits on)."""
        if idx in self._results:
            return self._decode_ready[idx]
        return super()._head_wakeup(idx)

    # Runahead's per-cycle body, bound on this class too so class-level
    # probes (benchmarks/perf) can wrap each model's step separately.
    # Result reuse hooks in through the two mode issue methods below
    # (explicit base calls: cheaper than super() per attempt).
    step_cycle = RunaheadCore.step_cycle

    def _try_issue_normal(self, idx: int) -> str:
        if idx in self._results:
            return self._issue_reused(idx)
        return RunaheadCore._try_issue_normal(self, idx)

    def _try_issue_runahead(self, idx: int) -> str:
        if idx in self._results:
            return self._issue_reused(idx)
        return RunaheadCore._try_issue_runahead(self, idx)

    def _issue_reused(self, idx: int) -> str:
        """Replay an instruction whose result a previous pass recorded.

        The saved result breaks the data dependence: no source wait, no
        cache access, single-cycle completion.  It still occupies an
        issue slot and port (Multipass re-processes everything).
        """
        dyn = self._insts[idx]
        ports = self.ports
        if self._port_int[idx]:
            if ports.int_free <= 0:
                self.stats.stalls.port += 1
                return STALLED
            ports.int_free -= 1
        else:
            if ports.mem_free <= 0:
                self.stats.stalls.port += 1
                return STALLED
            ports.mem_free -= 1
        completion = self.cycle + 1
        self.result_reuses += 1
        if self.mode == RUNAHEAD:
            dst = dyn.dst
            if dst is not None:
                self._shadow_poison.discard(dst)
                self.reg_ready[dst] = completion
            self.stats.advance_instructions += 1
            if self._phase_of is not None:
                self._phase_advance(idx)
            if dyn.is_control:
                self.predictor.update(dyn)
                if not self._predicted_ok[idx]:
                    self.fetch_blocked = False
                    self.fetch_resume_cycle = completion
                    self._last_fetch_line = -1
        else:
            # Architectural pass: the instruction commits with its saved
            # result; stores still enter the store queue for real.
            if dyn.is_store:
                if self.store_queue.full:
                    self.stats.stalls.store_buffer_full += 1
                    return STALLED
                self.store_queue.push(dyn.addr, dyn.store_val, self.cycle)
            dst = dyn.dst
            if dst is not None:
                self.reg_ready[dst] = completion
            self._results.discard(idx)  # consumed architecturally
            self.commit(dyn, completion)
        return ISSUED

    # ------------------------------------------------------------------
    def _runahead_writeback(self, dyn: DynInst, poisoned: bool,
                            completion: int) -> None:
        # Flattened parent body (this runs once per runahead instruction).
        dst = dyn.dst
        if dst is not None:
            if poisoned:
                self._shadow_poison.add(dst)
                self.reg_ready[dst] = self.cycle
            else:
                self._shadow_poison.discard(dst)
                self.reg_ready[dst] = completion
        self.stats.advance_instructions += 1
        if self._phase_of is not None:
            self._phase_advance(dyn.index)
        if not poisoned and not dyn.is_store:
            results = self._results
            if (dyn.index not in results
                    and len(results) < self.result_buffer_entries):
                results.add(dyn.index)

    def _exit_runahead(self) -> None:
        super()._exit_runahead()
        # Results for instructions older than the restart point can never
        # be replayed again; free their buffer slots.
        self._results = {i for i in self._results if i >= self.cursor}
