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

Normal mode issues through :meth:`CoreModel.try_issue
<repro.engine.base.CoreModel.try_issue>`, the one in-order issue rule
this model shares with the in-order core and Multipass; its miss arm
asks :meth:`RunaheadCore._try_enter` to start a runahead period if the
miss qualifies.  (iCFP and SLTP keep their own normal-mode rule: their
chained store buffer replaces the store queue.)

One ``step_cycle`` call steps one normal-mode cycle or runs a whole
runahead stretch: from the first runahead-mode cycle (the rest of the
cycle whose load started the period) up to the cycle before the trigger
fill returns, each cycle doing what a call would.  Multipass
(:mod:`.multipass`) adds one hook, result reuse: the always-present
``_results`` (empty here), :meth:`RunaheadCore._issue_reused`, the
reused head's wake-up and the prune at exit.
"""

from __future__ import annotations

from ..engine.base import CoreModel, ENTERED, ISSUED, STALLED
from ..functional.trace import DynInst, KIND_LOAD, KIND_STORE
from ..memory.hierarchy import L2, MEMORY, PENDING, STREAM, MemResult
from .runahead_cache import RunaheadCache

NORMAL = "normal"
RUNAHEAD = "runahead"


class RunaheadCore(CoreModel):
    """In-order pipeline with Runahead execution."""

    name = "runahead"
    #: Capacity of the result-reuse hook: none here, so ``_results``
    #: stays empty; :class:`~.multipass.MultipassCore` sets it per core.
    result_buffer_entries = 0

    def __init__(self, trace, config=None, advance_on: str = "l2",
                 leap=None) -> None:
        super().__init__(trace, config=config, leap=leap)
        if advance_on not in ("l2", "l2_d1", "all"):
            raise ValueError(f"unknown advance_on: {advance_on}")
        self.advance_on = advance_on
        self.mode = NORMAL
        self.ra_cache = RunaheadCache()  # Table 1: 256 entries
        self._shadow_poison: set[int] = set()
        self._trigger_ready = 0
        self._ckpt_cursor = 0
        self._ckpt_reg_ready: list[int] | None = None
        #: Dynamic indices whose results a runahead pass recorded, for
        #: :meth:`_issue_reused` to replay (Multipass's result buffer).
        self._results: set[int] = set()

    # ==================================================================
    # mode control
    # ==================================================================
    def next_event_cycle(self) -> int | None:
        """Horizon: a runahead period ends when the trigger miss fills."""
        if self.mode == RUNAHEAD:
            return self._trigger_ready
        return None

    def _head_wakeup(self, idx: int) -> int:
        """Match the issue rules of the head's path.

        A head with a saved result waits for nothing but decode: the
        result breaks its data dependences (:meth:`_issue_reused` checks
        only port availability, which the leap never waits on).  While
        running ahead, shadow-poisoned sources never wait on the
        scoreboard (they poison-propagate instead) and there is no
        WAW/destination stall.  The base rule would overestimate the
        wake-up — and an overestimated horizon lets the leap skip
        issueable cycles."""
        if idx in self._results:
            return self._decode_ready[idx]
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
        return self.mode == NORMAL and super().done()

    def _try_enter(self, dyn: DynInst, result: MemResult) -> bool:
        """Start a runahead period if this normal-mode miss qualifies.

        Only *long* misses are worth a runahead period: true DRAM fills
        or in-flight fills with DRAM-class remaining latency.  Stream-
        buffer hits return in L2-hit-class time — entering runahead on
        them costs the restart penalty for almost no look-ahead.  Under
        ``advance_on="l2_d1"``/``"all"`` a primary D$ miss qualifies
        too: one that is the lone outstanding demand miss (otherwise it
        is a secondary miss).

        On entry the core checkpoints at the load, which takes its
        memory port as the first runahead instruction (discarded later):
        its destination is poisoned.
        """
        level = result.level
        if not (level == MEMORY
                or (level == PENDING and result.mshr is not None
                    and result.mshr.is_l2
                    and (result.ready_cycle - self.cycle
                         > 2 * self._l2_hit_latency))
                or (self.advance_on in ("l2_d1", "all")
                    and level in (L2, PENDING)
                    and self.hierarchy.outstanding_demand_misses(
                        self.cycle) <= 1)):
            return False
        self.ports.mem_free -= 1
        self.mode = RUNAHEAD
        self._trigger_ready = result.ready_cycle
        self._ckpt_cursor = dyn.index
        self._ckpt_reg_ready = list(self.reg_ready)
        dst = dyn.dst
        if dst is None:
            self._shadow_poison = set()
        else:
            self._shadow_poison = {dst}
            self.reg_ready[dst] = self.cycle
        stats = self.stats
        stats.advance_entries += 1
        stats.advance_instructions += 1
        if self._phase_of is not None:
            self._phase_advance(dyn.index)
        return True

    def _exit_runahead(self) -> None:
        """The triggering miss returned: discard everything and replay."""
        self.mode = NORMAL
        self._restart_fetch(self._ckpt_cursor)
        self.reg_ready = self._ckpt_reg_ready or [self.cycle] * len(self.reg_ready)
        self._ckpt_reg_ready = None
        self._shadow_poison = set()
        self.ra_cache.flush()
        if self._results:
            # Results older than the restart point can never be replayed
            # again; free their buffer slots.
            self._results = {i for i in self._results if i >= self.cursor}

    # ==================================================================
    # the per-cycle body
    # ==================================================================
    def step_cycle(self) -> None:
        # The only per-cycle body of the runahead family (Multipass
        # shares it); the golden fixtures and the leap audit pin it.
        # A normal-mode cycle is stepped here; once the core runs ahead,
        # _run_ahead runs the rest of the period in this same call.
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
        ports = self.ports
        ports.int_free = ports.int_capacity
        ports.mem_free = ports.mem_capacity
        head = start = self.fetch_head
        cursor = self.cursor
        end = head + self._width
        if end > cursor:
            end = cursor
        if self.mode == NORMAL:
            # in-order issue; a load that starts a runahead period hands
            # the rest of this cycle to the stretch
            decode_ready = self._decode_ready
            results = self._results
            while head < end and decode_ready[head] <= cycle:
                status = (self._issue_reused(head) if head in results
                          else self.try_issue(head))
                if status is STALLED:
                    break
                head += 1
                if status is ENTERED:
                    break
            if self.mode == NORMAL:
                self.fetch_head = head
                progress = head != start
                # do_fetch (shared body; guard saves the call when idle)
                if (not self.fetch_blocked and cycle >= self.fetch_resume_cycle
                        and cursor < self._trace_len
                        and cursor - head < self._fq_depth
                        and self.do_fetch(cycle, head, cursor) != cursor):
                    progress = True
                # store drain
                store_queue = self.store_queue
                if store_queue._queue and store_queue.drain_step(
                        hierarchy, cycle, self.committed_memory):
                    progress = True
                if not progress:
                    self._leap_to_horizon()
                return
        self._run_ahead(cycle, head, start, end)

    def _run_ahead(self, cycle: int, head: int, start: int, end: int) -> None:
        """Run ahead from window slot ``head`` of ``cycle`` (``start`` is
        the cycle's first head, ``end`` its issue limit) up to the cycle
        before the trigger fill returns.

        Each cycle does what a ``step_cycle`` call would: in-order issue
        under runahead rules with the write-back folded in, the shared
        fetch, the store-queue drain, the leap on a no-progress cycle,
        then the next cycle's MSHR retire.  ``self.cycle`` and
        ``fetch_head`` are kept current for the helpers; the port counts
        are locals, written back around the one call that reads them.
        The safety limit is checked before each further cycle, where
        :meth:`run` would check it.
        """
        hierarchy = self.hierarchy
        ifetch_mshrs = hierarchy.ifetch_mshrs
        data_mshrs = hierarchy.mshrs
        ports = self.ports
        int_capacity = ports.int_capacity
        mem_capacity = ports.mem_capacity
        int_free = ports.int_free
        mem_free = ports.mem_free
        insts = self._insts
        kind_of = self._kind
        nsrc_of = self._nsrc
        src0_of = self._src0
        src1_of = self._src1
        exec_done = self._exec_done
        port_int_of = self._port_int
        decode_ready = self._decode_ready
        predicted_ok = self._predicted_ok
        width = self._width
        fq_depth = self._fq_depth
        trace_len = self._trace_len
        max_cycles = self._max_cycles
        trigger_ready = self._trigger_ready
        stats = self.stats
        stalls = stats.stalls
        reg_ready = self.reg_ready
        shadow = self._shadow_poison
        ra_cache = self.ra_cache
        results = self._results
        # Free result-buffer slots: only this loop adds results while
        # running ahead, and never one already saved.
        room = self.result_buffer_entries - len(results)
        phase_of = self._phase_of
        predictor = self.predictor
        store_queue = self.store_queue
        committed_memory = self.committed_memory
        cursor = self.cursor
        while True:
            # in-order issue under runahead rules
            while head < end and decode_ready[head] <= cycle:
                if head in results:
                    ports.int_free = int_free
                    ports.mem_free = mem_free
                    if self._issue_reused(head) is not ISSUED:
                        break
                    int_free = ports.int_free
                    mem_free = ports.mem_free
                    head += 1
                    continue
                # Shadow-poisoned sources never wait: they poison.
                poisoned = False
                nsrc = nsrc_of[head]
                if nsrc:
                    src = src0_of[head]
                    if src in shadow:
                        poisoned = True
                    elif reg_ready[src] > cycle:
                        stalls.src_wait += 1
                        break
                    if nsrc > 1:
                        src = src1_of[head]
                        if src in shadow:
                            poisoned = True
                        elif reg_ready[src] > cycle:
                            stalls.src_wait += 1
                            break
                        if nsrc > 2:
                            rest = self._srcs[head][2:]
                            if any(reg_ready[src] > cycle for src in rest
                                   if src not in shadow):
                                stalls.src_wait += 1
                                break
                            if not poisoned:
                                poisoned = any(src in shadow for src in rest)
                port_int = port_int_of[head]
                if port_int:
                    if int_free <= 0:
                        stalls.port += 1
                        break
                elif mem_free <= 0:
                    stalls.port += 1
                    break
                dyn = insts[head]
                completion = cycle + 1
                kind = kind_of[head]
                if not poisoned:
                    if kind == KIND_LOAD:
                        loaded = self._runahead_load(dyn)
                        if loaded is None:
                            break
                        completion, poisoned = loaded
                    elif kind == KIND_STORE:
                        ra_cache.write(dyn.addr, dyn.store_val, poisoned=False)
                    else:
                        completion = cycle + exec_done[head]
                elif kind == KIND_STORE and src0_of[head] not in shadow:
                    # Poisoned data at a known address: best-effort
                    # poison propagation through the runahead cache.
                    ra_cache.write(dyn.addr, None, poisoned=True)
                if port_int:
                    int_free -= 1
                else:
                    mem_free -= 1
                # write-back
                dst = dyn.dst
                if dst is not None:
                    if poisoned:
                        shadow.add(dst)
                        reg_ready[dst] = cycle
                    else:
                        shadow.discard(dst)
                        reg_ready[dst] = completion
                stats.advance_instructions += 1
                if phase_of is not None:
                    self._phase_advance(head)
                if room and not poisoned and kind != KIND_STORE:
                    results.add(head)
                    room -= 1
                if dyn.is_control:
                    predictor.update(dyn)
                    if not poisoned and not predicted_ok[head]:
                        # A resolved wrong path redirects fetch; a
                        # poisoned one stays blocked until the period
                        # ends.
                        self._redirect_fetch(completion)
                head += 1
            self.fetch_head = head
            progress = head != start
            # do_fetch (shared body; guard saves the call when idle)
            if (not self.fetch_blocked and cycle >= self.fetch_resume_cycle
                    and cursor < trace_len and cursor - head < fq_depth):
                fetched = self.do_fetch(cycle, head, cursor)
                if fetched != cursor:
                    cursor = fetched
                    progress = True
            # store drain
            if store_queue._queue and store_queue.drain_step(
                    hierarchy, cycle, committed_memory):
                progress = True
            if not progress:
                self._leap_to_horizon()
                cycle = self.cycle
            if cycle + 1 >= trigger_ready:
                return  # the next call restores the checkpoint
            if cycle > max_cycles:
                raise self._diverged()
            # the next cycle: miss returns, free ports, a fresh issue group
            cycle += 1
            self.cycle = cycle
            if (ifetch_mshrs._next_ready is not None
                    and cycle >= ifetch_mshrs._next_ready):
                ifetch_mshrs.retire_complete(cycle)
            if (data_mshrs._next_ready is not None
                    and cycle >= data_mshrs._next_ready):
                data_mshrs.retire_complete(cycle)
            int_free = int_capacity
            mem_free = mem_capacity
            start = head
            end = head + width
            if end > cursor:
                end = cursor

    # ==================================================================
    # issue
    # ==================================================================
    def _runahead_load(self, dyn: DynInst):
        """A load under runahead rules: ``(completion, poisoned)``, or
        ``None`` when the MSHRs are full (the stall is counted)."""
        cycle = self.cycle
        fwd = self.ra_cache.read(dyn.addr)
        if fwd is not None:
            return cycle + self._l1d_hit_latency, fwd[1]
        hit = self.store_queue.forward(dyn.addr)
        if hit is not None:
            self.stats.store_forward_hits += 1
            return cycle + self._l1d_hit_latency, False
        ready = self.hierarchy.data_hit_cycle(dyn.addr, cycle)
        if ready is not None:
            # L1 hit: never L2-class, never a D$ miss — plain completion.
            return ready, False
        result = self.hierarchy.data_access(dyn.addr, cycle)
        if result.stalled:
            self.stats.stalls.mshr_full += 1
            return None
        self.record_miss(result, dyn.index)
        if self._is_l2_class(result):
            return cycle + 1, True  # poison, keep flowing
        if result.l1_miss and self.advance_on == "all":
            return cycle + 1, True  # D$-nb option
        return result.ready_cycle, False  # D$-blocking (default)

    def _is_l2_class(self, result: MemResult) -> bool:
        """Long-latency (DRAM-class) misses poison during runahead."""
        if result.level == MEMORY:
            return True
        if result.level in (STREAM, PENDING):
            threshold = 2 * self._l2_hit_latency
            return result.ready_cycle - self.cycle > threshold
        return False

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
                    self._redirect_fetch(completion)
        else:
            # Architectural pass: the instruction commits with its saved
            # result; stores still enter the store queue for real.
            if dyn.is_store:
                if self.store_queue.full:
                    self.stats.stalls.store_buffer_full += 1
                    return STALLED
                self.store_queue.push(dyn.addr, dyn.store_val)
            dst = dyn.dst
            if dst is not None:
                self.reg_ready[dst] = completion
            self._results.discard(idx)  # consumed architecturally
            self.commit(dyn, completion)
        return ISSUED
