"""iCFP: the in-order Continual Flow Pipeline (Sections 3.1-3.4).

State machine
-------------
``normal``    — plain in-order execution (with the chained store buffer
                acting as the machine's store buffer).
``advance``   — a checkpoint is live.  Miss-independent instructions
                execute and commit into the main register file (tagged
                with last-writer sequence numbers); miss-dependent ones
                divert into the slice buffer with their captured side
                inputs.  Rally passes re-execute slice contents whenever
                a miss returns, merging results into main state gated by
                sequence numbers; with the multithreaded-rally feature
                they interleave with tail execution at one instruction
                per cycle, rally first.
``simple_ra`` — fallback runahead (Section 3.4): entered on slice/store
                buffer overflow or a poisoned-address store.  Nothing
                commits; execution continues purely for its prefetch
                value, then rewinds to the fallback point and resumes
                full advance execution once the condition resolves.

One ``step_cycle`` call steps one normal or advance cycle, or, when its
tail issue falls back, runs the whole fallback: through the cycle that
resumes advance mode (or exits it, if the episode is over) or squashes,
each cycle doing what a call would (:meth:`ICFPCore._run_fallback`).
So no call starts in ``simple_ra`` and a caller never sees the core in
it: an external store (:meth:`ICFPCore.external_store`), probed between
calls, finds the core in normal or advance mode.

The :class:`ICFPFeatures` flags expose the Figure 7 "build" ladder
(store-buffer discipline, blocking vs non-blocking rallies, poison
width, multithreaded rally) and the Figure 6 advance triggers.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..engine.base import CoreModel, ISSUED, STALLED
from ..functional.trace import DynInst, KIND_LOAD, KIND_STORE
from ..isa.registers import NUM_REGS, ZERO_REG
from ..memory.hierarchy import (L2, MEMORY, NO_MSHRS, PENDING, STREAM,
                                MemResult)
from .poison import PoisonAllocator
from .regfile import MainRegFile
from .signature import LoadSignature
from .slice_buffer import SliceBuffer, SliceEntry
from .store_buffer import ChainedStoreBuffer, ForwardResult, IndexedStall

NORMAL = "normal"
ADVANCE = "advance"
SIMPLE_RA = "simple_ra"

#: The issue path of each mode a ``step_cycle`` call starts in, by
#: method name (see :meth:`ICFPCore._set_mode`).
_MODE_ISSUE = {NORMAL: "_try_issue_normal", ADVANCE: "_try_issue_advance"}

#: Forward-progress bound on chained re-advance: a rallied load may
#: re-defer on a fresh qualifying miss at most this many times before
#: the rally blocks on its fill and merges it.  Deep enough that real
#: dependent-miss chains (a handful of levels) are never cut short;
#: finite so a set-thrashing slice cannot re-poison one load forever.
_MAX_RALLY_REDEFERS = 8


@dataclass(frozen=True)
class ICFPFeatures:
    """Feature flags spanning the paper's design space (Figures 6-8)."""

    #: Store-buffer discipline: "chained" (the paper's design),
    #: "assoc" (idealised), or "indexed" (limited forwarding, Figure 8).
    store_buffer_kind: str = "chained"
    #: False = a single rally pass that stalls at pending loads and
    #: blocks the tail (the SLTP-style rally of Figure 7, bars 1-2).
    nonblocking_rally: bool = True
    #: True = rally and tail instructions interleave (Figure 7, bar 5).
    mt_rally: bool = True
    #: Poison-vector width (Section 3.4; 1 = classic poison bits).
    poison_bits: int = 8
    #: Which misses trigger/extend advance mode: "all" or "l2".
    advance_on: str = "all"
    slice_entries: int = 128
    store_buffer_entries: int = 128
    chain_table_size: int = 512
    signature_bits: int = 1024
    #: Assert dataflow invariants during simulation (tests set this).
    validate: bool = False


@dataclass
class _Checkpoint:
    cursor: int
    ssn: int
    cycle: int
    committed: tuple[int, int, int, int]  # instructions, loads, stores, branches
    #: Per-phase snapshot of the same four commit counters (None when
    #: phase attribution is off) — a squash un-counts the squashed
    #: region's commits from the buckets exactly as it does from the
    #: aggregates, preserving the conservation law.
    committed_phases: tuple | None = None


class ICFPCore(CoreModel):
    """The iCFP machine model."""

    name = "icfp"

    def __init__(self, trace, config=None,
                 features: ICFPFeatures | None = None,
                 leap=None) -> None:
        super().__init__(trace, config=config, leap=leap)
        self.features = features if features is not None else ICFPFeatures()
        f = self.features
        self._mt_rally = f.mt_rally
        self._set_mode(NORMAL)
        self.main_rf = MainRegFile()
        self.slice = SliceBuffer(f.slice_entries)
        self.slice_by_seq: dict[int, SliceEntry] = {}
        self.sb = ChainedStoreBuffer(
            capacity=f.store_buffer_entries,
            chain_table_size=f.chain_table_size,
            kind=f.store_buffer_kind,
        )
        self.poison_alloc = PoisonAllocator(f.poison_bits)
        self.signature = LoadSignature(bits=f.signature_bits)
        self.checkpoint: _Checkpoint | None = None
        self.next_seq = 0
        # Rally state.
        self.pending_rally_mask = 0
        self.rally_active = False
        self._pass_entries: list[SliceEntry] = []
        self._pass_cursor = 0
        self._pass_mask = 0
        self._rally_wait_until = 0
        self._rally_block: tuple[SliceEntry, int] | None = None
        # Simple-runahead (fallback) state.
        self.simple_ra_start = 0
        self.fallback_reason: str | None = None
        self._shadow_poison: set[int] = set()
        self._shadow_stores: dict[int, object] = {}
        self._rallied_since_fallback = False
        self._stale_check_needed = False

    # ==================================================================
    # the per-cycle body
    # ==================================================================
    def step_cycle(self) -> None:
        # The only per-cycle body of the iCFP family (SLTP inherits it);
        # the golden fixtures and the leap audit pin it.  iCFP replaces
        # the conventional store queue with the chained store buffer
        # (drained at the end of the cycle), so the conventional queue,
        # always empty here, is never probed.  A normal or advance cycle
        # is stepped here; once the tail issue falls back, _run_fallback
        # runs the fallback in this same call, so no call starts in it.
        cycle = self.cycle + 1
        self.cycle = cycle
        mode_at_start = self.mode
        # miss returns (MSHR retire fast path inlined), rally start
        hierarchy = self.hierarchy
        ifetch_mshrs = hierarchy.ifetch_mshrs
        if (ifetch_mshrs._next_ready is not None
                and cycle >= ifetch_mshrs._next_ready):
            ifetch_mshrs.retire_complete(cycle)
        data_mshrs = hierarchy.mshrs
        if data_mshrs._next_ready is not None and cycle >= data_mshrs._next_ready:
            returned = data_mshrs.retire_complete(cycle)
        else:
            returned = NO_MSHRS
        if self.mode != NORMAL:
            if returned:
                mask = self.poison_alloc.mask_of_returned(returned)
                if mask:
                    self.pending_rally_mask |= mask
            if not self.rally_active:
                if self._stale_check_needed:
                    self._requeue_stale_bits()
                if self.pending_rally_mask and self.slice._active:
                    self._start_rally_pass()
        # rally slot, then in-order tail issue through the mode's path
        # (re-read per iteration: an issue can flip the mode)
        ports = self.ports
        ports.int_free = ports.int_capacity
        ports.mem_free = ports.mem_capacity
        progress = False
        slots = self._width
        run_tail = True
        if self.rally_active:
            if self._rally_step():
                slots -= 1
                progress = True
            elif not self.rally_active:
                # The pass ended (or squashed) inside this step: slices
                # reclaimed, tail unblocked, stale check armed — a real
                # state change the leap must not glide over.
                progress = True
            if not self._mt_rally:
                run_tail = False  # tail blocked while a rally is in flight
        # The window is read after the rally step: a squash resets it.
        head = start = self.fetch_head
        cursor = self.cursor
        if run_tail:
            end = head + slots
            if end > cursor:
                end = cursor
            decode_ready = self._decode_ready
            while (head < end and decode_ready[head] <= cycle
                   and self._mode_issue(self, head) is ISSUED):
                head += 1
            if head != start:
                self.fetch_head = head
                progress = True
        # do_fetch (shared body; guard saves the call when idle)
        if (not self.fetch_blocked and cycle >= self.fetch_resume_cycle
                and cursor < self._trace_len
                and cursor - head < self._fq_depth
                and self.do_fetch(cycle, head, cursor) != cursor):
            progress = True
        # gated store-buffer drain + mode-exit checks
        checkpoint = self.checkpoint
        sb = self.sb
        if sb.ssn_complete + 1 < sb.ssn_tail and sb.drain_step(
                self.hierarchy, cycle, self.committed_memory,
                before_ssn=checkpoint.ssn if checkpoint is not None else None):
            progress = True
        mode = self.mode
        if mode == ADVANCE:
            self._maybe_exit_advance()
        elif mode == SIMPLE_RA:
            # The tail issue just fell back; unless the fallback resolves
            # at once, the rest of this call runs it.
            self._maybe_resume_advance()
            if self.mode == SIMPLE_RA:
                self._run_fallback(cycle)
                return
        if self.mode is not mode_at_start:
            # A mode transition on an otherwise idle cycle (advance
            # falling back to simple runahead on a full slice, the
            # fallback resuming advance, advance exiting) swaps the
            # head's issue rules mid-stall: the same head can issue
            # next cycle under the new mode, so the leap must step
            # through the boundary rather than scan past it.
            progress = True
        if not progress:
            self._leap_to_horizon()

    def _run_fallback(self, cycle: int) -> None:
        """Run simple runahead from the cycle after ``cycle``, the one
        whose tail issue fell back, through the cycle that leaves it: a
        resume to advance (and on to normal, if the episode is over) or
        a rally squash.

        Each cycle does what a ``step_cycle`` call would in this mode:
        the MSHR retire, folding returned poison bits into the pending
        rally mask; the stale-bit re-queue and a due rally start; the
        rally slot; in-order tail issue under the fallback rule (unless
        a blocking rally holds the tail); the shared fetch; the drain
        gated by the checkpoint; the resume check; the leap on a
        no-progress cycle.  Only the rally slot and the drain move what
        the resume check reads (slice occupancy, the rally state, a full
        store buffer, a finished rally; a rally start only sets
        ``rally_active``, which can only hold a resume off), so it runs on
        cycles where one of them made progress; the cycle that fell back
        ran it last.  ``self.cycle`` and ``fetch_head`` are kept current
        for the helpers; the port counts are locals, read by the
        fallback rule alone.  The safety limit is checked before each
        further cycle, where :meth:`run` would check it.
        """
        hierarchy = self.hierarchy
        ifetch_mshrs = hierarchy.ifetch_mshrs
        data_mshrs = hierarchy.mshrs
        int_capacity = self.ports.int_capacity
        mem_capacity = self.ports.mem_capacity
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
        l1d_hit_latency = self._l1d_hit_latency
        mt_rally = self._mt_rally
        stats = self.stats
        stalls = stats.stalls
        phase_of = self._phase_of
        predictor = self.predictor
        poison_alloc = self.poison_alloc
        slice_buf = self.slice
        sb = self.sb
        committed_memory = self.committed_memory
        # A resume or a squash replaces these, and the loop returns on
        # either.
        reg_ready = self.reg_ready
        poison_of = self.main_rf.poison
        shadow = self._shadow_poison
        shadow_stores = self._shadow_stores
        before_ssn = self.checkpoint.ssn
        while True:
            if cycle > max_cycles:
                raise self._diverged()
            cycle += 1
            self.cycle = cycle
            # miss returns (MSHR retire fast path inlined), rally start
            if (ifetch_mshrs._next_ready is not None
                    and cycle >= ifetch_mshrs._next_ready):
                ifetch_mshrs.retire_complete(cycle)
            if (data_mshrs._next_ready is not None
                    and cycle >= data_mshrs._next_ready):
                returned = data_mshrs.retire_complete(cycle)
                if returned:
                    mask = poison_alloc.mask_of_returned(returned)
                    if mask:
                        self.pending_rally_mask |= mask
            rally_active = self.rally_active
            if not rally_active:
                if self._stale_check_needed:
                    self._requeue_stale_bits()
                if self.pending_rally_mask and slice_buf._active:
                    self._start_rally_pass()
                    rally_active = True
            # rally slot (`moved`: it or the drain made progress)
            moved = progress = False
            slots = width
            if rally_active:
                if self._rally_step():
                    slots -= 1
                    moved = True
                elif not self.rally_active:
                    moved = True  # the pass ended
                if self.mode is not SIMPLE_RA:
                    # A squash: the window is empty and fetch restarts
                    # next cycle, so the now ungated drain ends it.
                    if sb.ssn_complete + 1 < sb.ssn_tail:
                        sb.drain_step(hierarchy, cycle, committed_memory)
                    return
            # in-order tail issue under the fallback rule
            head = start = self.fetch_head
            cursor = self.cursor
            if mt_rally or not rally_active:
                end = head + slots
                if end > cursor:
                    end = cursor
                int_free = int_capacity
                mem_free = mem_capacity
                while head < end and decode_ready[head] <= cycle:
                    # Shadow-poisoned sources never wait: they poison,
                    # as main-poisoned ones do once timing-ready.
                    poisoned = False
                    nsrc = nsrc_of[head]
                    if nsrc:
                        src = src0_of[head]
                        if src in shadow:
                            poisoned = True
                        elif reg_ready[src] > cycle:
                            stalls.src_wait += 1
                            break
                        elif poison_of[src]:
                            poisoned = True
                        if nsrc > 1:
                            src = src1_of[head]
                            if src in shadow:
                                poisoned = True
                            elif reg_ready[src] > cycle:
                                stalls.src_wait += 1
                                break
                            elif poison_of[src]:
                                poisoned = True
                            if nsrc > 2:
                                rest = self._srcs[head][2:]
                                if any(reg_ready[src] > cycle for src in rest
                                       if src not in shadow):
                                    stalls.src_wait += 1
                                    break
                                if not poisoned:
                                    poisoned = any(src in shadow
                                                   or poison_of[src]
                                                   for src in rest)
                    dyn = insts[head]
                    completion = cycle + 1
                    if not poisoned:
                        if port_int_of[head]:
                            if int_free <= 0:
                                stalls.port += 1
                                break
                            int_free -= 1
                        else:
                            if mem_free <= 0:
                                stalls.port += 1
                                break
                            mem_free -= 1
                        kind = kind_of[head]
                        if kind == KIND_LOAD:
                            addr = dyn.addr
                            if addr in shadow_stores:
                                completion = cycle + l1d_hit_latency
                            elif (ready := hierarchy.data_hit_cycle(
                                    addr, cycle)) is not None:
                                completion = ready  # never advance-qualifying
                            else:
                                result = hierarchy.data_access(addr, cycle)
                                if result.stalled:
                                    break
                                self.record_miss(result, head)
                                if self._qualifies_for_advance(result):
                                    poisoned = True  # a prefetch: poison it
                                else:
                                    completion = result.ready_cycle
                        elif kind == KIND_STORE:
                            shadow_stores[dyn.addr] = dyn.store_val
                        else:
                            completion = cycle + exec_done[head]
                    # write-back
                    dst = dyn.dst
                    if dst is not None:
                        if poisoned:
                            shadow.add(dst)
                            reg_ready[dst] = cycle
                        else:
                            shadow.discard(dst)
                            reg_ready[dst] = completion
                    if dyn.is_control:
                        predictor.update(dyn)
                        if not poisoned and not predicted_ok[head]:
                            # A resolved wrong path redirects fetch; a
                            # poisoned one stays blocked until the
                            # fallback resolves and execution rewinds.
                            self._redirect_fetch(completion)
                    stats.advance_instructions += 1
                    if phase_of is not None:
                        self._phase_advance(head)
                    head += 1
                if head != start:
                    self.fetch_head = head
                    progress = True
            # do_fetch (shared body; guard saves the call when idle)
            if (not self.fetch_blocked and cycle >= self.fetch_resume_cycle
                    and cursor < trace_len and cursor - head < fq_depth
                    and self.do_fetch(cycle, head, cursor) != cursor):
                progress = True
            # store-buffer drain, gated by the checkpoint
            if sb.ssn_complete + 1 < sb.ssn_tail and sb.drain_step(
                    hierarchy, cycle, committed_memory, before_ssn=before_ssn):
                moved = True
            if moved:
                self._maybe_resume_advance()
                if self.mode is not SIMPLE_RA:
                    return
            elif not progress:
                self._leap_to_horizon()
                cycle = self.cycle

    def _requeue_stale_bits(self) -> None:
        """Entries captured *while* a pass was in flight can carry a bit
        whose miss returned during that very pass; that bit will never
        "return" again.  Re-queue any active bits with no in-flight fill
        behind them so the next pass sweeps them up."""
        self._stale_check_needed = False
        stale = self.slice.pending_poison() & ~self._in_flight_bits()
        if stale:
            self.pending_rally_mask |= stale

    def _in_flight_bits(self) -> int:
        mask = 0
        for mshr in self.hierarchy.mshrs.pending():
            if mshr.poison_bit is not None:
                mask |= 1 << mshr.poison_bit
        return mask

    def done(self) -> bool:
        # The chained store buffer stands in for the store queue (always
        # empty here), and the run ends only once it has drained.
        return self.mode == NORMAL and self.sb.empty and super().done()

    def _set_mode(self, mode: str) -> None:
        """Switch mode and, in normal and advance mode, its issue path.

        The path (``_mode_issue``) saves the mode dispatch per issue
        attempt on the hot path.  It holds the class function, called
        as ``self._mode_issue(self, idx)``: a bound method here would
        make every core a reference cycle, alive until the cycle
        collector runs.  The fallback has none: the advance issue that
        enters it returns ``STALLED``, ending that cycle's issue, and
        :meth:`_run_fallback` issues every later fallback cycle under
        its own rule.
        """
        self.mode = mode
        if mode != SIMPLE_RA:
            self._mode_issue = getattr(type(self), _MODE_ISSUE[mode])

    def next_event_cycle(self) -> int | None:
        """Horizon: rally waits, blocked rallies, the gated SB drain, and
        the rally-start triggers that only a stepped cycle can act on
        (the pending rally mask and the stale-bit re-queue) — without
        exporting those, a leap could glide over the very cycle that
        would have launched the next rally pass."""
        hints = []
        cycle = self.cycle
        if self.rally_active:
            if self._rally_wait_until > cycle:
                hints.append(self._rally_wait_until)
        elif self.mode != NORMAL and self.slice._active:
            # step_cycle would start a rally pass on the next stepped
            # cycle if any bits are queued — either directly in
            # pending_rally_mask or re-queued by the deferred stale
            # check (read-only here: the flag is cleared on the stepped
            # cycle that performs the check).
            if self.pending_rally_mask:
                hints.append(cycle + 1)
            elif (self._stale_check_needed
                    and self.slice.pending_poison() & ~self._in_flight_bits()):
                hints.append(cycle + 1)
        if self._rally_block is not None:
            hints.append(self._rally_block[1])
        drain = self.sb.next_event_cycle(cycle)
        if drain is not None:
            hints.append(drain)
        return min(hints) if hints else None

    def _head_wakeup(self, idx: int) -> int:
        """Mode-exact wake-up of the issue head (leap contract: never
        later than the cycle the issue path would accept the entry).

        * ``normal``    — sources and destination (WAW) must be ready.
        * ``advance``   — poisoned sources never wait (the instruction
          slices out instead); no WAW stall.
        * ``simple_ra`` — *shadow*-poisoned sources never wait; every
          other source (including main-poisoned ones, which the issue
          path checks only after the scoreboard) waits; no WAW stall.
        """
        earliest = self._decode_ready[idx]
        srcs = self._srcs[idx]
        reg_ready = self.reg_ready
        mode = self.mode
        if mode == SIMPLE_RA:
            shadow = self._shadow_poison
            for src in srcs:
                if src not in shadow and reg_ready[src] > earliest:
                    earliest = reg_ready[src]
            return earliest
        poison = self.main_rf.poison
        normal = mode == NORMAL
        for src in srcs:
            if (normal or not poison[src]) and reg_ready[src] > earliest:
                earliest = reg_ready[src]
        dst = self._dst[idx]
        if (normal and dst is not None and dst != ZERO_REG
                and reg_ready[dst] > earliest):
            earliest = reg_ready[dst]
        return earliest

    # ==================================================================
    # issue paths
    # ==================================================================
    # ------------------------------------------------------------------
    # normal mode
    # ------------------------------------------------------------------
    def _try_issue_normal(self, idx: int) -> str:
        dyn = self._insts[idx]
        cycle = self.cycle
        reg_ready = self.reg_ready
        ports = self.ports
        if self._port_int[idx]:
            if ports.int_free <= 0:
                self.stats.stalls.port += 1
                return STALLED
        elif ports.mem_free <= 0:
            self.stats.stalls.port += 1
            return STALLED
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
            return self._normal_load(dyn)
        if kind == KIND_STORE:
            if self.sb.full:
                self.stats.stalls.store_buffer_full += 1
                return STALLED
            self.sb.allocate(dyn.addr, dyn.store_val, 0, -1)
            self._finish_issue(dyn, cycle + 1)
            return ISSUED
        completion = cycle + self._exec_done[idx]
        self._finish_issue(dyn, completion)
        return ISSUED

    def _normal_load(self, dyn: DynInst) -> str:
        fwd = self.sb.forward(dyn.addr)
        if fwd is not None:
            if type(fwd) is IndexedStall:
                self.stats.stalls.store_buffer_full += 1
                return STALLED  # wait for the conflicting store to drain
            self.stats.store_forward_hits += 1
            self.stats.store_forward_hops += fwd.excess_hops
            self._check_forward(fwd, dyn)
            self._finish_issue(dyn, self.cycle + self._l1d_hit_latency
                               + fwd.excess_hops)
            return ISSUED
        ready = self.hierarchy.data_hit_cycle(dyn.addr, self.cycle)
        if ready is not None:
            # L1 hit: record_miss is a no-op and never advance-qualifying.
            self._finish_issue(dyn, ready)
            return ISSUED
        result = self.hierarchy.data_access(dyn.addr, self.cycle)
        if result.stalled:
            self.stats.stalls.mshr_full += 1
            return STALLED
        self.record_miss(result, dyn.index)
        if self._qualifies_for_advance(result):
            # The defining transition: checkpoint and keep flowing.
            self._enter_advance(dyn.index)
            self.ports.mem_free -= 1
            return self._advance_missing_load(dyn, result)
        self._finish_issue(dyn, result.ready_cycle)
        return ISSUED

    def _finish_issue(self, dyn: DynInst, completion: int) -> None:
        """Common issue epilogue for normal-mode instructions."""
        if self._port_int[dyn.index]:
            self.ports.int_free -= 1
        else:
            self.ports.mem_free -= 1
        self.commit(dyn, completion)
        if dyn.dst is not None:
            self.main_rf.write_normal(dyn.dst, dyn.result)

    # ------------------------------------------------------------------
    # advance mode
    # ------------------------------------------------------------------
    def _try_issue_advance(self, idx: int) -> str:
        dyn = self._insts[idx]
        poison_of = self.main_rf.poison
        reg_ready = self.reg_ready
        cycle = self.cycle
        src_poison = 0
        # Non-poisoned inputs must be timing-ready (either to execute or
        # to be captured as slice side inputs).
        nsrc = self._nsrc[idx]
        if nsrc:
            src = self._src0[idx]
            poison = poison_of[src]
            if poison:
                src_poison = poison
            elif reg_ready[src] > cycle:
                self.stats.stalls.src_wait += 1
                return STALLED
            if nsrc > 1:
                src = self._src1[idx]
                poison = poison_of[src]
                if poison:
                    src_poison |= poison
                elif reg_ready[src] > cycle:
                    self.stats.stalls.src_wait += 1
                    return STALLED
                if nsrc > 2:
                    for src in self._srcs[idx][2:]:
                        poison = poison_of[src]
                        if poison:
                            src_poison |= poison
                        elif reg_ready[src] > cycle:
                            self.stats.stalls.src_wait += 1
                            return STALLED

        kind = self._kind[idx]
        if kind == KIND_STORE:
            return self._advance_store(dyn, src_poison)

        if src_poison:
            # Miss-dependent: divert to the slice buffer.
            return self._capture_slice(dyn, src_poison)

        # Miss-independent: execute and commit.
        ports = self.ports
        port_int = self._port_int[idx]
        if port_int:
            if ports.int_free <= 0:
                self.stats.stalls.port += 1
                return STALLED
        elif ports.mem_free <= 0:
            self.stats.stalls.port += 1
            return STALLED
        if kind == KIND_LOAD:
            return self._advance_load(dyn)
        completion = cycle + self._exec_done[idx]
        if port_int:
            ports.int_free -= 1
        else:
            ports.mem_free -= 1
        self._commit_advance(dyn, completion)
        return ISSUED

    def _advance_load(self, dyn: DynInst) -> str:
        fwd = self.sb.forward(dyn.addr)
        if fwd is not None:
            if type(fwd) is IndexedStall:
                self._enter_simple_ra(dyn.index, "indexed_stall")
                return STALLED
            self.stats.store_forward_hits += 1
            self.stats.store_forward_hops += fwd.excess_hops
            if fwd.poison:
                # Forwarding from a miss-dependent store poisons the load.
                return self._capture_slice(dyn, fwd.poison)
            self._check_forward(fwd, dyn)
            self.ports.mem_free -= 1
            self._commit_advance(dyn, self.cycle + self._l1d_hit_latency
                                 + fwd.excess_hops)
            return ISSUED
        ready = self.hierarchy.data_hit_cycle(dyn.addr, self.cycle)
        if ready is not None:
            # L1 hit: cache-sourced, never advance-qualifying.
            self.signature.insert(dyn.addr)
            self.ports.mem_free -= 1
            self._commit_advance(dyn, ready)
            return ISSUED
        result = self.hierarchy.data_access(dyn.addr, self.cycle)
        if result.stalled:
            self.stats.stalls.mshr_full += 1
            return STALLED
        self.record_miss(result, dyn.index)
        if self._qualifies_for_advance(result):
            self.ports.mem_free -= 1
            return self._advance_missing_load(dyn, result)
        # Cache-sourced value: vulnerable to external stores.
        self.signature.insert(dyn.addr)
        self.ports.mem_free -= 1
        self._commit_advance(dyn, result.ready_cycle)
        return ISSUED

    def _advance_missing_load(self, dyn: DynInst, result: MemResult) -> str:
        """A load whose miss we advance past: poison and slice it."""
        mask = self.poison_alloc.bit_for(result.mshr)
        return self._capture_slice(dyn, mask, self_poison=True)

    def _advance_store(self, dyn: DynInst, src_poison: int) -> str:
        addr_src, data_src = dyn.srcs[0], dyn.srcs[1]
        addr_poison = self.main_rf.poison[addr_src]
        data_poison = self.main_rf.poison[data_src]
        if addr_poison:
            # A store with an unknown address removes all forwarding
            # guarantees for younger loads (Section 3.2).
            self.stats.stalls.poisoned_store_addr += 1
            self._enter_simple_ra(dyn.index, "poisoned_store_addr")
            return STALLED
        if self.sb.full:
            self._enter_simple_ra(dyn.index, "store_buffer_full")
            return STALLED
        if not data_poison:
            if self.ports.mem_free <= 0:
                self.stats.stalls.port += 1
                return STALLED
            self.sb.allocate(dyn.addr, dyn.store_val, 0, self.next_seq)
            self.ports.mem_free -= 1
            self._commit_advance(dyn, self.cycle + 1)
            return ISSUED
        # Data-poisoned store: hold a store-buffer slot (so younger loads
        # see the poison) and re-execute via the slice buffer.
        if self.slice.full:
            self._enter_simple_ra(dyn.index, "slice_buffer_full")
            return STALLED
        ssn = self.sb.allocate(dyn.addr, None, data_poison, self.next_seq)
        return self._capture_slice(dyn, data_poison, ssn=ssn)

    def _capture_slice(self, dyn: DynInst, poison: int,
                       self_poison: bool = False, ssn: int | None = None) -> str:
        """Divert a miss-dependent instruction into the slice buffer."""
        if self.slice.full:
            self._enter_simple_ra(dyn.index, "slice_buffer_full")
            return STALLED
        seq = self._take_seq()
        captured: dict[int, object] = {}
        producer_seq: dict[int, int] = {}
        for src in dyn.srcs:
            mask = self.main_rf.poison[src]
            if mask and not self_poison:
                producer_seq[src] = self.main_rf.last_writer[src]
            else:
                captured[src] = self.main_rf.values[src]
        slice_entry = SliceEntry(dyn, seq, captured, poison,
                                 ssn_limit=self.sb.ssn_tail,
                                 predicted_ok=self._predicted_ok[dyn.index],
                                 producer_seq=producer_seq, ssn=ssn)
        self.slice.append(slice_entry)
        self.slice_by_seq[seq] = slice_entry
        if self.rally_active:
            self._stale_check_needed = True
        self.stats.slice_captures += 1
        self.stats.advance_instructions += 1
        if self._phase_of is not None:
            self._phase_advance(dyn.index)
        if dyn.dst is not None:
            self.main_rf.write_advance(dyn.dst, None, seq, poison)
            self.reg_ready[dyn.dst] = self.cycle  # consumers slice, not stall
        # Poisoned control: a correctly predicted branch just flows on; a
        # mispredicted one leaves fetch blocked until its rally squashes.
        return ISSUED

    def _commit_advance(self, dyn: DynInst, completion: int) -> None:
        seq = self._take_seq()
        self.commit(dyn, completion)
        self.stats.advance_instructions += 1
        if self._phase_of is not None:
            self._phase_advance(dyn.index)
        if dyn.dst is not None:
            self.main_rf.write_advance(dyn.dst, dyn.result, seq, 0)

    def _take_seq(self) -> int:
        seq = self.next_seq
        self.next_seq += 1
        return seq

    # ------------------------------------------------------------------
    # rally
    # ------------------------------------------------------------------
    def _start_rally_pass(self) -> None:
        self._pass_mask = (self.pending_rally_mask
                           if self.features.nonblocking_rally
                           else self.poison_alloc.full_mask)
        self.pending_rally_mask = 0
        self._pass_entries = list(self.slice.entries())
        self._pass_cursor = 0
        self.rally_active = True
        self._rally_block = None
        self.stats.rally_passes += 1

    def _rally_step(self) -> bool:
        """Process at most one slice instruction.

        Returns True when the rally did real work this cycle; pure waits
        (a blocked load, an in-slice FU dependence) return False so the
        idle-cycle fast-forward can jump them — the wake-up times are
        exported through :meth:`next_event_cycle`.
        """
        cycle = self.cycle
        if self._rally_block is not None:
            slice_entry, ready = self._rally_block
            if ready > cycle:
                return False  # blocking rally: idle until the miss returns
            self._rally_block = None
            return self._merge_rally_result(slice_entry, ready)
        if self._rally_wait_until > cycle:
            return False  # waiting on an in-slice FU dependence
        entries = self._pass_entries
        mask = self._pass_mask
        index = self._pass_cursor
        end = len(entries)
        while index < end and not (entries[index].active
                                   and entries[index].poison & mask):
            index += 1  # banked skip: free
        self._pass_cursor = index
        if index == end:
            self._end_rally_pass()
            return False
        # Re-execute the entry once its in-slice producers' results are
        # bound and ready.
        slice_entry = entries[index]
        dyn = slice_entry.dyn
        pending = 0
        value_ready = cycle
        for src, producer in (list(slice_entry.producer_seq.items())
                              if slice_entry.producer_seq else ()):
            producer_entry = self.slice_by_seq.get(producer)
            if producer_entry is None:
                # Producer merged into main state in an earlier episode;
                # read it like a captured input.
                slice_entry.captured[src] = self.main_rf.values[src]
                del slice_entry.producer_seq[src]
            elif producer_entry.active:
                pending |= producer_entry.poison
            else:
                # Per-visit capture: bind the now-available input so later
                # passes never chase a stale producer (slice overlap case).
                slice_entry.captured[src] = producer_entry.result_value
                del slice_entry.producer_seq[src]
                value_ready = max(value_ready, producer_entry.done_cycle)
        if pending:
            return self._requeue_rally(slice_entry, pending)
        if value_ready > cycle:
            self._rally_wait_until = value_ready
            return False
        if self.features.validate:
            self._validate_bindings(slice_entry)

        if dyn.is_load:
            return self._rally_load(slice_entry)
        if dyn.is_store:
            self.sb.update_store(slice_entry.ssn, dyn.store_val, 0)
            return self._merge_rally_result(slice_entry, cycle + 1)
        if dyn.is_control and not slice_entry.predicted_ok:
            # A mispredicted poisoned branch: everything younger than the
            # checkpoint is wrong-path state.  Squash and restart.
            self._squash_to_checkpoint()
            return True
        return self._merge_rally_result(
            slice_entry, cycle + self._exec_done[dyn.index])

    def _rally_load(self, slice_entry: SliceEntry) -> bool:
        dyn = slice_entry.dyn
        fwd = self.sb.forward(dyn.addr, before_ssn=slice_entry.ssn_limit)
        if isinstance(fwd, IndexedStall):
            # Treat like a pending input: revisit next pass.
            return self._requeue_rally(slice_entry, slice_entry.poison)
        if isinstance(fwd, ForwardResult):
            if fwd.poison:
                return self._requeue_rally(slice_entry, fwd.poison)
            self.stats.store_forward_hits += 1
            self.stats.store_forward_hops += fwd.excess_hops
            self._check_forward(fwd, dyn)
            return self._merge_rally_result(
                slice_entry,
                self.cycle + self._l1d_hit_latency + fwd.excess_hops)
        ready = self.hierarchy.data_hit_cycle(dyn.addr, self.cycle)
        if ready is not None:
            # L1 hit: never advance-qualifying, merges immediately.
            self.signature.insert(dyn.addr)
            return self._merge_rally_result(slice_entry, ready)
        result = self.hierarchy.data_access(dyn.addr, self.cycle)
        if result.stalled:
            self._rally_wait_until = self.cycle + 1
            return False
        self.record_miss(result, dyn.index)
        if self._qualifies_for_advance(result):
            # Dependent miss discovered during the rally.  Re-deferral
            # must be *bounded*: a load whose line keeps getting evicted
            # between passes (set-thrashing slices — generated blocked
            # kernels whose strides alias a few D$ sets do this) would
            # otherwise re-poison on every visit and the rally would
            # never drain.  After a few chained re-advances, block on
            # this fill and merge — the same forward-progress guarantee
            # the indexed store buffer's younger-entry skip provides.
            if (self.features.nonblocking_rally
                    and slice_entry.redefers < _MAX_RALLY_REDEFERS):
                slice_entry.redefers += 1
                return self._requeue_rally(
                    slice_entry, self.poison_alloc.bit_for(result.mshr))
            self._rally_block = (slice_entry, result.ready_cycle)
            return False
        self.signature.insert(dyn.addr)
        return self._merge_rally_result(slice_entry, result.ready_cycle)

    def _requeue_rally(self, slice_entry: SliceEntry, poison: int) -> bool:
        """Leave a slice entry for a later pass, waiting on the misses in
        ``poison``: it counts as a rally instruction and the pass moves
        on (returns True, the rally's real work this cycle)."""
        slice_entry.poison = poison
        self.stats.rally_instructions += 1
        if self._phase_of is not None:
            self._phase_rally(slice_entry.dyn.index)
        self._pass_cursor += 1
        return True

    def _merge_rally_result(self, slice_entry: SliceEntry,
                            completion: int) -> bool:
        """Merge a re-executed slice entry into main state (it completes
        at ``completion``) and move the pass on (returns True, the
        rally's real work this cycle)."""
        dyn = slice_entry.dyn
        self.slice.deactivate(slice_entry)
        slice_entry.result_value = dyn.result
        slice_entry.done_cycle = completion
        if dyn.dst is not None:
            landed = self.main_rf.write_rally(dyn.dst, dyn.result,
                                              slice_entry.seq, 0)
            if landed:
                self.reg_ready[dyn.dst] = completion
        if dyn.is_control:
            self.predictor.update(dyn)
        self.stats.rally_instructions += 1
        self.stats.instructions += 1
        if dyn.is_load:
            self.stats.loads += 1
        elif dyn.is_store:
            self.stats.stores += 1
        if dyn.is_branch:
            self.stats.branches += 1
        if self._phase_of is not None:
            self._phase_rally(dyn.index)
            self._phase_commit(dyn)
        if completion > self.last_completion:
            self.last_completion = completion
        self._pass_cursor += 1
        return True

    def _end_rally_pass(self) -> None:
        self.rally_active = False
        self._rally_wait_until = 0
        self._pass_entries = []
        # Reclaim head space; producer bindings (slice_by_seq) live until
        # the episode ends so later passes can still read merged results.
        self.slice.reclaim_head()
        self._rallied_since_fallback = True
        self._stale_check_needed = True

    # ------------------------------------------------------------------
    # mode transitions
    # ------------------------------------------------------------------
    def _qualifies_for_advance(self, result: MemResult) -> bool:
        """Which misses trigger/extend advance execution.

        "L2-only" configurations trigger on *long* misses: true DRAM
        fills, or in-flight fills with DRAM-class remaining latency.
        Stream-buffer hits return within L2-hit-class latency, so they
        count as short misses (like D$ misses that hit the L2).
        """
        level = result.level
        if level == MEMORY:
            return True
        if self.features.advance_on == "all":
            return level in (L2, STREAM, PENDING)
        if level == PENDING and result.mshr is not None and result.mshr.is_l2:
            threshold = 2 * self._l2_hit_latency
            return result.ready_cycle - self.cycle > threshold
        return False

    def _enter_advance(self, idx: int) -> None:
        """Checkpoint at the triggering load (dynamic index ``idx``)."""
        self.main_rf.checkpoint()
        self.checkpoint = _Checkpoint(
            cursor=idx,
            ssn=self.sb.ssn_tail,
            cycle=self.cycle,
            committed=(self.stats.instructions, self.stats.loads,
                       self.stats.stores, self.stats.branches),
            committed_phases=None if self._phase_stats is None else tuple(
                (p.instructions, p.loads, p.stores, p.branches)
                for p in self._phase_stats
            ),
        )
        self._set_mode(ADVANCE)
        self.next_seq = 0
        self.stats.advance_entries += 1

    def _maybe_exit_advance(self) -> None:
        if self.rally_active or self.slice._active:
            return
        # Every deferred instruction has merged; advance state is final.
        self.slice.reclaim_head()
        self.slice_by_seq.clear()
        if self.features.validate and self.main_rf.any_poisoned():
            raise AssertionError("register poison survived advance exit")
        self.main_rf.poison = [0] * NUM_REGS
        self.main_rf.release()
        self.checkpoint = None
        self._set_mode(NORMAL)
        self.signature.clear()
        self.pending_rally_mask = 0

    def _enter_simple_ra(self, dyn_index: int, reason: str) -> None:
        if self.mode == SIMPLE_RA:
            return
        self._set_mode(SIMPLE_RA)
        self.simple_ra_start = dyn_index
        self.fallback_reason = reason
        self._shadow_poison = set()
        self._shadow_stores = {}
        self._rallied_since_fallback = False
        self.stats.simple_runahead_entries += 1

    def _maybe_resume_advance(self) -> None:
        reason = self.fallback_reason
        resume = False
        if self.slice._active == 0 and not self.rally_active:
            # The whole advance episode has merged: resuming lets
            # _maybe_exit_advance release the checkpoint, which unblocks
            # the store-buffer drain (a full SB can never drain while
            # the commit gate is up, so waiting on `not sb.full` alone
            # would deadlock).
            resume = True
        elif reason == "slice_buffer_full":
            slice_buf = self.slice
            resume = len(slice_buf._entries) < slice_buf.capacity
        elif reason == "store_buffer_full":
            resume = not self.sb.full
        else:  # poisoned_store_addr / indexed_stall: retry after rallies
            resume = self._rallied_since_fallback
        if not resume:
            return
        self._set_mode(ADVANCE)
        self.fallback_reason = None
        self._restart_fetch(self.simple_ra_start)
        self._shadow_poison = set()
        self._shadow_stores = {}
        self._maybe_exit_advance()

    def _squash_to_checkpoint(self) -> None:
        ckpt = self.checkpoint
        assert ckpt is not None
        self.main_rf.restore()
        self.slice.flush()
        self.slice_by_seq.clear()
        self.sb.squash_to(ckpt.ssn)
        self._restart_fetch(ckpt.cursor)
        self._set_mode(NORMAL)
        self.checkpoint = None
        self.signature.clear()
        self.rally_active = False
        self.pending_rally_mask = 0
        self._rally_block = None
        self._rally_wait_until = 0
        self._pass_entries = []
        self._pass_cursor = 0
        self._shadow_poison = set()
        self._shadow_stores = {}
        self.fallback_reason = None
        # Un-count everything committed inside the squashed region.
        base = ckpt.committed
        self.stats.instructions = base[0]
        self.stats.loads = base[1]
        self.stats.stores = base[2]
        self.stats.branches = base[3]
        if ckpt.committed_phases is not None:
            for phase, saved in zip(self._phase_stats, ckpt.committed_phases):
                (phase.instructions, phase.loads,
                 phase.stores, phase.branches) = saved
        self.stats.squashes += 1
        self.reg_ready = [self.cycle] * NUM_REGS

    # ------------------------------------------------------------------
    # multiprocessor safety
    # ------------------------------------------------------------------
    def external_store(self, addr: int) -> bool:
        """An external (other-core) store probes the load signature.

        Returns True if it forced a squash to the checkpoint.  Callers
        probe between ``step_cycle`` calls, and a fallback runs inside
        one, so the probe finds the core in normal or advance mode: a
        fallback's episode is probed once the call that ran it returns.
        """
        if self.mode == NORMAL or self.checkpoint is None:
            return False
        if not self.signature.probe(addr):
            return False
        self._squash_to_checkpoint()
        return True

    # ------------------------------------------------------------------
    # validation
    # ------------------------------------------------------------------
    def _check_forward(self, fwd: ForwardResult, dyn: DynInst) -> None:
        if self.features.validate and fwd.value != dyn.result:
            raise AssertionError(
                f"store-buffer forwarded {fwd.value!r} to load #{dyn.index}, "
                f"functional value is {dyn.result!r}"
            )

    def _validate_bindings(self, slice_entry: SliceEntry) -> None:
        dyn = slice_entry.dyn
        for i, src in enumerate(dyn.srcs):
            if src in slice_entry.captured:
                got = slice_entry.captured[src]
                want = dyn.src_vals[i]
                if got != want:
                    raise AssertionError(
                        f"slice input mismatch on #{dyn.index} src r{src}: "
                        f"captured {got!r}, functional {want!r}"
                    )

    def validate_final_state(self) -> list[str]:
        """Compare merged architectural state against the golden trace."""
        problems = []
        final = self.trace.final_state
        for reg in range(NUM_REGS):
            if self.main_rf.values[reg] != final.regs[reg]:
                problems.append(
                    f"reg {reg}: {self.main_rf.values[reg]!r} != "
                    f"{final.regs[reg]!r}"
                )
        for addr, value in self.committed_memory.items():
            if final.memory.get(addr, 0) != value:
                problems.append(
                    f"mem[{addr:#x}]: {value!r} != {final.memory.get(addr, 0)!r}"
                )
        stored = {d.addr for d in self.trace if d.is_store}
        if set(self.committed_memory) != stored:
            missing = stored - set(self.committed_memory)
            extra = set(self.committed_memory) - stored
            problems.append(f"memory coverage: missing={missing} extra={extra}")
        return problems
