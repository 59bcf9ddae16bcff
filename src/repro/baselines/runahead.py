"""Runahead execution (Dundas & Mudge 1997; Mutlu et al. 2003).

On a qualifying miss the core checkpoints *at the missing load* and
keeps executing purely for the memory-level parallelism: runahead
instructions poison-propagate, prefetch through the real hierarchy, and
forward store data through a best-effort runahead cache — but nothing
commits.  When the triggering miss returns, everything is thrown away
and execution restarts from the checkpointed load (which now hits).

Configurations follow Section 5.1 / Figure 6:

* ``advance_on="l2"``       — enter runahead on L2 misses only, and
  *block* on data-cache misses encountered while running ahead (the
  paper's default, best at a 20-cycle L2);
* ``advance_on="l2_d1"``    — also enter on *primary* D$ misses;
* ``advance_on="all"``      — additionally poison (rather than block on)
  secondary D$ misses while running ahead (the "D$-nb" option of
  Figure 1e/f).
"""

from __future__ import annotations

from ..engine.base import CoreModel, ISSUED, STALLED
from ..functional.trace import DynInst, KIND_LOAD, KIND_STORE
from ..isa.registers import ZERO_REG
from ..memory.hierarchy import L2, MEMORY, PENDING, STREAM, MemResult
from .runahead_cache import RunaheadCache

NORMAL = "normal"
RUNAHEAD = "runahead"


class RunaheadCore(CoreModel):
    """In-order pipeline with Runahead execution."""

    name = "runahead"

    def __init__(self, trace, config=None, hierarchy=None, predictor=None,
                 advance_on: str = "l2", runahead_cache_entries: int = 256,
                 leap=None) -> None:
        super().__init__(trace, config=config, hierarchy=hierarchy,
                         predictor=predictor, leap=leap)
        if advance_on not in ("l2", "l2_d1", "all"):
            raise ValueError(f"unknown advance_on: {advance_on}")
        self.advance_on = advance_on
        self.mode = NORMAL
        self.ra_cache = RunaheadCache(runahead_cache_entries)
        self._shadow_poison: set[int] = set()
        self._trigger_ready = 0
        self._ckpt_cursor = 0
        self._ckpt_reg_ready: list[int] | None = None
        #: Mode issue path (swapped on mode transitions) — saves a
        #: dispatch hop per issue attempt on the hot path.  Subclasses
        #: hook issue by overriding the two ``_try_issue_*`` methods.
        #: It holds the class function, called as
        #: ``self._mode_issue(self, idx)``: a bound method here would
        #: make every core a reference cycle, alive until the cycle
        #: collector runs.
        self._mode_issue = type(self)._try_issue_normal

    # ==================================================================
    # mode control
    # ==================================================================
    def next_event_cycle(self) -> int | None:
        """Horizon: a runahead period ends when the trigger miss fills."""
        if self.mode == RUNAHEAD:
            return self._trigger_ready
        return None

    def _head_wakeup(self, idx: int) -> int:
        """Match :meth:`_try_issue_runahead`'s stall rules while running
        ahead: shadow-poisoned sources never wait on the scoreboard (they
        poison-propagate instead) and there is no WAW/destination stall.
        The base rule would overestimate the wake-up — and an
        overestimated horizon lets the leap skip issueable cycles."""
        if self.mode != RUNAHEAD:
            return super()._head_wakeup(idx)
        earliest = self._decode_ready[idx]
        shadow = self._shadow_poison
        reg_ready = self.reg_ready
        for src in self._srcs[idx]:
            if src not in shadow and reg_ready[src] > earliest:
                earliest = reg_ready[src]
        return earliest

    def done(self) -> bool:
        # A runahead period always ends with a restore; the run can only
        # finish in normal mode, after the architectural re-execution.
        return (
            self.mode == NORMAL
            and self.cursor >= self._trace_len
            and self.fetch_head == self.cursor
            and self.store_queue.empty
            and self.cycle >= self.last_completion
        )

    def _qualifies_entry(self, result: MemResult) -> bool:
        """Should this normal-mode miss start a runahead period?

        Only *long* misses are worth a runahead period: true DRAM fills
        or in-flight fills with DRAM-class remaining latency.  Stream-
        buffer hits return in L2-hit-class time — entering runahead on
        them costs the restart penalty for almost no look-ahead.
        """
        level = result.level
        if level == MEMORY:
            return True
        if (level == PENDING and result.mshr is not None
                and result.mshr.is_l2):
            threshold = 2 * self._l2_hit_latency
            if result.ready_cycle - self.cycle > threshold:
                return True
        if self.advance_on in ("l2_d1", "all") and level in (L2, PENDING):
            # Primary D$ miss: qualify only if it is the lone outstanding
            # demand miss (otherwise it is a secondary miss).
            return self.hierarchy.outstanding_demand_misses(self.cycle) <= 1
        return False

    def _enter_runahead(self, dyn: DynInst, result: MemResult) -> None:
        self.mode = RUNAHEAD
        self._mode_issue = type(self)._try_issue_runahead
        self._trigger_ready = result.ready_cycle
        self._ckpt_cursor = dyn.index
        self._ckpt_reg_ready = list(self.reg_ready)
        self._shadow_poison = set()
        self.stats.advance_entries += 1

    def _exit_runahead(self) -> None:
        """The triggering miss returned: discard everything and replay."""
        self.mode = NORMAL
        self._mode_issue = type(self)._try_issue_normal
        self.cursor = self.fetch_head = self._ckpt_cursor
        self.fetch_blocked = False
        self.fetch_resume_cycle = self.cycle + 1
        self._last_fetch_line = -1
        self.reg_ready = self._ckpt_reg_ready or [self.cycle] * len(self.reg_ready)
        self._ckpt_reg_ready = None
        self._shadow_poison = set()
        self.ra_cache.flush()

    # ==================================================================
    # issue
    # ==================================================================
    def step_cycle(self) -> None:
        # The only per-cycle body of the runahead family (Multipass
        # shares it); the golden fixtures and the leap audit pin it.
        cycle = self.cycle + 1
        self.cycle = cycle
        # miss returns (MSHR retire fast path inlined), runahead exit
        hierarchy = self.hierarchy
        ifetch_mshrs = hierarchy.ifetch_mshrs
        if (ifetch_mshrs._next_ready is not None
                and cycle >= ifetch_mshrs._next_ready):
            ifetch_mshrs.retire_complete(cycle)
        data_mshrs = hierarchy.mshrs
        if data_mshrs._next_ready is not None and cycle >= data_mshrs._next_ready:
            data_mshrs.retire_complete(cycle)
        if self.mode == RUNAHEAD and cycle >= self._trigger_ready:
            self._exit_runahead()
        # in-order issue through the mode's path, re-read per
        # iteration: an issue can start a runahead period mid-cycle
        ports = self.ports
        ports.int_free = ports.int_capacity
        ports.mem_free = ports.mem_capacity
        head = start = self.fetch_head
        cursor = self.cursor
        end = head + self._width
        if end > cursor:
            end = cursor
        decode_ready = self._decode_ready
        while (head < end and decode_ready[head] <= cycle
               and self._mode_issue(self, head) is ISSUED):
            head += 1
        self.fetch_head = head
        self._progress = head != start
        # do_fetch (shared body; guard saves the call when idle)
        if (not self.fetch_blocked and cycle >= self.fetch_resume_cycle
                and cursor < self._trace_len
                and cursor - head < self._fq_depth):
            self.do_fetch()
        # store drain
        store_queue = self.store_queue
        if store_queue._queue and store_queue.drain_step(
                self.hierarchy, cycle, self.committed_memory):
            self._progress = True
        if not self._progress:
            self._leap_to_horizon()

    def _try_issue_normal(self, idx: int) -> str:
        dyn = self._insts[idx]
        cycle = self.cycle
        ports = self.ports
        port_int = self._port_int[idx]
        if port_int:
            if ports.int_free <= 0:
                self.stats.stalls.port += 1
                return STALLED
        elif ports.mem_free <= 0:
            self.stats.stalls.port += 1
            return STALLED
        reg_ready = self.reg_ready
        nsrc = self._nsrc[idx]
        if nsrc:
            if reg_ready[self._src0[idx]] > cycle:
                self.stats.stalls.src_wait += 1
                return STALLED
            if nsrc > 1:
                if reg_ready[self._src1[idx]] > cycle:
                    self.stats.stalls.src_wait += 1
                    return STALLED
                if nsrc > 2:
                    for src in self._srcs[idx][2:]:
                        if reg_ready[src] > cycle:
                            self.stats.stalls.src_wait += 1
                            return STALLED
        dst = self._dst[idx]
        if dst is not None and dst != ZERO_REG and reg_ready[dst] > cycle:
            self.stats.stalls.waw_wait += 1
            return STALLED
        kind = self._kind[idx]
        if kind == KIND_LOAD:
            hit = self.store_queue.forward(dyn.addr)
            if hit is not None:
                self.stats.store_forward_hits += 1
                completion = cycle + self._l1d_hit_latency
            elif (ready := self.hierarchy.data_hit_cycle(dyn.addr,
                                                         cycle)) is not None:
                # L1 hit: record_miss is a no-op and an L1 hit never
                # qualifies a runahead entry, so skip both.
                completion = ready
            else:
                result = self.hierarchy.data_access(dyn.addr, cycle)
                if result.stalled:
                    self.stats.stalls.mshr_full += 1
                    return STALLED
                self.record_miss(result, dyn.index)
                if self._qualifies_entry(result):
                    # Checkpoint at the load and run ahead; the load is
                    # the first runahead instruction (discarded later).
                    self._enter_runahead(dyn, result)
                    ports.mem_free -= 1
                    self._runahead_writeback(dyn, poisoned=True,
                                             completion=cycle + 1)
                    return ISSUED
                completion = result.ready_cycle
        elif kind == KIND_STORE:
            if self.store_queue.full:
                self.stats.stalls.store_buffer_full += 1
                return STALLED
            self.store_queue.push(dyn.addr, dyn.store_val)
            completion = cycle + 1
        else:
            completion = cycle + self._exec_done[idx]
        if port_int:
            ports.int_free -= 1
        else:
            ports.mem_free -= 1
        self.commit(dyn, completion)
        return ISSUED

    # ------------------------------------------------------------------
    # runahead mode
    # ------------------------------------------------------------------
    def _try_issue_runahead(self, idx: int) -> str:
        dyn = self._insts[idx]
        cycle = self.cycle
        shadow = self._shadow_poison
        reg_ready = self.reg_ready
        poisoned = False
        nsrc = self._nsrc[idx]
        if nsrc:
            src = self._src0[idx]
            if src in shadow:
                poisoned = True
            elif reg_ready[src] > cycle:
                self.stats.stalls.src_wait += 1
                return STALLED
            if nsrc > 1:
                src = self._src1[idx]
                if src in shadow:
                    poisoned = True
                elif reg_ready[src] > cycle:
                    self.stats.stalls.src_wait += 1
                    return STALLED
                if nsrc > 2:
                    for src in self._srcs[idx][2:]:
                        if src in shadow:
                            poisoned = True
                        elif reg_ready[src] > cycle:
                            self.stats.stalls.src_wait += 1
                            return STALLED
        ports = self.ports
        port_int = self._port_int[idx]
        if port_int:
            if ports.int_free <= 0:
                self.stats.stalls.port += 1
                return STALLED
        elif ports.mem_free <= 0:
            self.stats.stalls.port += 1
            return STALLED

        completion = cycle + 1
        kind = self._kind[idx]
        if not poisoned:
            if kind == KIND_LOAD:
                status, completion, poisoned = self._runahead_load(dyn)
                if status is not ISSUED:
                    return status
            elif kind == KIND_STORE:
                self.ra_cache.write(dyn.addr, dyn.store_val, poisoned=False)
            else:
                completion = cycle + self._exec_done[idx]
        elif kind == KIND_STORE:
            # Poisoned data (or address): best-effort poison propagation.
            addr_poisoned = dyn.srcs[0] in shadow
            if not addr_poisoned:
                self.ra_cache.write(dyn.addr, None, poisoned=True)

        if port_int:
            ports.int_free -= 1
        else:
            ports.mem_free -= 1
        self._runahead_writeback(dyn, poisoned, completion)
        if dyn.is_control:
            self.predictor.update(dyn)
            if not self._predicted_ok[idx]:
                if poisoned:
                    # Wrong path with no way to recover until the period
                    # ends; fetch stays blocked.
                    pass
                else:
                    self.fetch_blocked = False
                    self.fetch_resume_cycle = completion
                    self._last_fetch_line = -1
        return ISSUED

    def _runahead_load(self, dyn: DynInst):
        """Returns (status, completion, poisoned)."""
        fwd = self.ra_cache.read(dyn.addr)
        if fwd is not None:
            return ISSUED, self.cycle + self._l1d_hit_latency, fwd[1]
        hit = self.store_queue.forward(dyn.addr)
        if hit is not None:
            self.stats.store_forward_hits += 1
            return ISSUED, self.cycle + self._l1d_hit_latency, False
        ready = self.hierarchy.data_hit_cycle(dyn.addr, self.cycle)
        if ready is not None:
            # L1 hit: never L2-class, never a D$ miss — plain completion.
            return ISSUED, ready, False
        result = self.hierarchy.data_access(dyn.addr, self.cycle)
        if result.stalled:
            self.stats.stalls.mshr_full += 1
            return STALLED, 0, False
        self.record_miss(result, dyn.index)
        if self._is_l2_class(result):
            return ISSUED, self.cycle + 1, True  # poison, keep flowing
        if result.l1_miss and self.advance_on == "all":
            return ISSUED, self.cycle + 1, True  # D$-nb option
        return ISSUED, result.ready_cycle, False  # D$-blocking (default)

    def _is_l2_class(self, result: MemResult) -> bool:
        """Long-latency (DRAM-class) misses poison during runahead."""
        if result.level == MEMORY:
            return True
        if result.level in (STREAM, PENDING):
            threshold = 2 * self._l2_hit_latency
            return result.ready_cycle - self.cycle > threshold
        return False

    def _runahead_writeback(self, dyn: DynInst, poisoned: bool,
                            completion: int) -> None:
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
