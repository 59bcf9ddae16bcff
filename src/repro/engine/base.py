"""Cycle-level in-order core model with an event-horizon scheduler.

:class:`CoreModel` is the substrate every machine model (in-order,
Runahead, Multipass, SLTP, iCFP) subclasses: state, fetch, the
in-order issue rule, commit, the fetch restart and mispredict redirect,
and the event-horizon leap.  The issue rule, :meth:`CoreModel.try_issue`,
is the normal-mode rule of all five models; its data-miss arm asks one
hook, :meth:`CoreModel._try_enter`, to start a runahead period or an
advance episode if the miss qualifies.  Every core has one store slot,
``store_queue``: the conventional :class:`~repro.pipeline.store_queue.
StoreQueue`, or for iCFP and SLTP the chained store buffer that replaces
it.  Each model family owns exactly one per-cycle body, its ``step_cycle``,
which does four things in one frame::

    1. miss returns and mode transitions
    2. in-order issue of up to ``width`` instructions
    3. fetch (the shared :meth:`CoreModel.do_fetch`) into the fetch
       window: the fetch queue is always a run of consecutive dynamic
       indices, ``[fetch_head, cursor)``, and each fetched index's
       decode-ready cycle and prediction outcome sit in two per-core
       lists indexed by dynamic index, so fetch allocates nothing
    4. store drain and mode-exit checks; leap if nothing moved

A call steps one cycle, except in two cases, each cycle of which does
the four things above.  In the runahead family (Runahead, and
Multipass, which adds one result-reuse hook) a call covers a whole
runahead stretch, every cycle from the first in runahead mode up to
the one before the trigger fill returns.  In the iCFP family (iCFP, and
SLTP, which inherits it) a call whose tail issue falls back to simple
runahead covers the whole fallback, through the cycle that resumes
advance mode or squashes, so no call starts or ends in it.  Callers
check the safety limit between calls (:meth:`run`), and a stretch or a
fallback checks it between its cycles.

The model is execute-driven over a pre-materialised dynamic trace:
instructions know their operands, addresses, and branch outcomes, so
timing decisions (stall-on-use, forwarding, miss classification) are
made with real dataflow, and re-execution (rallies, runahead replays)
revisits the same trace records.

A vanilla in-order pipeline stalls at the first instruction that *uses*
a missing load's result — not at the miss itself — which the scoreboard
reproduces naturally; independent misses already overlap through the
non-blocking hierarchy's MSHRs.

Event-horizon scheduling
------------------------
The paper's headline scenario — hundreds of dead cycles under an
all-level miss — is exactly the one a naive cycle loop is slowest at.
Every stateful component therefore exposes a ``next_event_cycle()``
*horizon*: the earliest future cycle at which its state can change
(MSHR fills, store drains, the fetch-resume latch, scoreboard ready
times, subclass mode events).  Whenever a stepped cycle makes no
progress, :meth:`CoreModel._leap_to_horizon` jumps the clock directly
to the minimum of those horizons instead of idling through the stall
region one cycle at a time.  The leap fires only after a no-progress
cycle, so per-cycle observables (issue order, stall attribution,
fetch timestamps) are bit-identical to a cycle-by-cycle simulation —
see ``tests/engine/test_idle_skip.py`` and the golden fixtures in
``tests/engine/test_golden_regression.py``.

The per-cycle bodies index the trace's flat :class:`~repro.functional.
trace.TraceHot` arrays (issue kinds, operands, execute latencies, port
kinds, I$ lines) rather than chasing per-object attributes; the arrays
are built once per trace and shared by every model that replays it.
"""

from __future__ import annotations

import os

from ..branch.predictor import BranchPredictor
from ..functional.trace import DynInst, KIND_LOAD, KIND_STORE, Trace
from ..obs import trace as _obs_trace
from ..isa.registers import NUM_REGS, ZERO_REG
from ..memory.hierarchy import MEMORY, PENDING, MemoryHierarchy, MemResult
from ..pipeline.config import MachineConfig
from ..pipeline.resources import PortSet
from ..pipeline.stats import CoreStats, PhaseStats
from ..pipeline.store_queue import IndexedStall, StoreQueue
from .result import SimResult

#: try_issue outcomes.  ``ENTERED``: the head is a load whose miss
#: started a runahead period or an advance episode
#: (:meth:`CoreModel._try_enter`); it issued as the first instruction of
#: the new mode.
ISSUED = "issued"
STALLED = "stalled"
ENTERED = "entered"

#: The mode every core starts and finishes a run in; the plain in-order
#: core never leaves it.
NORMAL = "normal"


class SimulationDiverged(RuntimeError):
    """The cycle loop exceeded the configured safety limit."""


def warm_geometry_key(machine_config) -> tuple:
    """The warm-relevant subset of a machine config.

    Tag-store geometry plus the warm flags — nothing else: warm
    contents are line/set/assoc arithmetic over the program image, so
    e.g. Figure 6's latency sweep shares one snapshot across all L2
    hit latencies.
    """
    def geom(c):
        return (c.size_bytes, c.assoc, c.line_bytes)

    h = machine_config.hierarchy
    return (geom(h.l1i), geom(h.l1d), geom(h.l2),
            machine_config.warm_icache, machine_config.warm_dcache)


class CoreModel:
    """2-way superscalar in-order pipeline state and issue rules.

    Subclasses supply the per-cycle body, ``step_cycle``.
    """

    name = "in-order"

    def __init__(
        self,
        trace: Trace,
        config: MachineConfig | None = None,
        leap: bool | None = None,
    ) -> None:
        self.trace = trace
        self.config = cfg = (config if config is not None
                             else MachineConfig.hpca09())
        self.hierarchy = MemoryHierarchy(cfg.hierarchy)
        self.predictor = BranchPredictor()
        self.stats = CoreStats()

        self.cycle = 0
        self.mode = NORMAL
        self.reg_ready = [0] * NUM_REGS
        #: The fetch queue is the window ``[fetch_head, cursor)``: fetch
        #: is in order, so the queued instructions are always consecutive
        #: dynamic indices.  ``fetch_head`` is the oldest one not yet
        #: issued, ``cursor`` the next to fetch; a flush sets both to the
        #: restart index.
        self.fetch_head = 0
        self.cursor = 0
        self.fetch_blocked = False
        self.fetch_resume_cycle = 0
        self._ifetch_ready = 0
        self._last_fetch_line = -1
        self.ports = PortSet(cfg.int_ports, cfg.mem_ports)
        self.store_queue = StoreQueue(cfg.store_buffer_entries)
        self.committed_memory: dict[int, object] = {}
        self.last_completion = 0

        # Reference mode: ``leap=False`` (or a truthy ``REPRO_NO_LEAP``
        # in the environment, parsed like ``REPRO_STORE``) disables the
        # event-horizon leap entirely, making this core a supported
        # cycle-by-cycle differential baseline — the engine steps every
        # stall cycle individually and must produce bit-identical
        # results (see tests/engine/test_idle_skip.py and
        # `make leap-audit`).
        if leap is None:
            # Local import: repro.exec drives its jobs through cores.
            from ..exec.store import _FALSEY

            flag = os.environ.get("REPRO_NO_LEAP", "").strip().lower()
            leap = not flag or flag in _FALSEY
        self._leap = leap

        # Hot-loop bindings: flat per-trace arrays plus the config
        # scalars the per-cycle body touches, hoisted out of the object
        # graph once per simulation.
        hot = trace.hot
        self._insts = trace.insts
        self._trace_len = len(trace.insts)
        self._kind = hot.kind
        self._srcs = hot.srcs
        self._nsrc = hot.nsrc
        self._src0 = hot.src0
        self._src1 = hot.src1
        self._dst = hot.dst
        self._exec_done = hot.exec_done
        self._port_int = hot.port_int
        self._width = cfg.width
        self._fq_depth = cfg.fetch_queue_depth
        self._frontend_depth = cfg.frontend_depth
        self._l1i_line_bytes = cfg.hierarchy.l1i.line_bytes
        self._iline = hot.iline(self._l1i_line_bytes)
        self._l1d_hit_latency = cfg.hierarchy.l1d.hit_latency
        self._l2_hit_latency = cfg.hierarchy.l2.hit_latency
        self._max_cycles = cfg.max_cycles
        # Per-index front-end latches, written at fetch and read only
        # inside the window (a re-fetch overwrites a flushed index's).
        self._decode_ready = [0] * self._trace_len
        self._predicted_ok = [True] * self._trace_len

        # Phase attribution (observation only).  Multi-region programs
        # get live per-commit bucketing — one flat-array lookup guarded
        # by a single `is not None` check on the commit path.  Single-
        # region programs (the whole named suite) keep `_phase_of is
        # None`, so the hot paths pay nothing and the one bucket is
        # synthesised from the aggregates at run end.
        regions = trace.program.phase_regions
        self._phase_regions = regions
        if len(regions) > 1:
            self._phase_of = trace.phase_index()
            self._phase_stats = [PhaseStats(name=name)
                                 for name, _lo, _hi in regions]
            self._phase_cur = 0  # execution starts in the first region
            self._phase_mark = 0
        else:
            self._phase_of = None
            self._phase_stats = None

        # Leap-audit probe (observation only, ``REPRO_TRACE`` gated):
        # leap counts, leapt-cycle totals, and horizon-source tallies
        # feed the obs metrics registry at finalize.  ``None`` when
        # tracing is off — the leap path then pays one ``is not None``
        # check per taken leap and the commit path pays nothing.
        self._obs_probe = ({"leaps": 0, "leapt": 0, "sources": {}}
                           if _obs_trace.TRACER is not None else None)

        if cfg.warm_icache or cfg.warm_dcache:
            self._warm_hierarchy()

    def _warm_hierarchy(self) -> None:
        """Warm the caches, reusing a prior snapshot where possible.

        Warm-up is pure construction-time work that depends only on the
        program image and the hierarchy geometry — every model of a
        workload (and every sweep value that keeps the hierarchy config)
        produces the identical warm tag store.  The first core to warm a
        trace at a :func:`warm_geometry_key` stores the I$/D$/L2 sets in
        ``trace.warm_snapshots``; later cores load them instead of
        replaying the insert loop.  Snapshots live as long as the trace,
        in this process only: building a core never touches the disk.
        """
        cfg = self.config
        hier = self.hierarchy
        key = warm_geometry_key(cfg)
        snapshots = self.trace.warm_snapshots
        snap = snapshots.get(key)
        if snap is None:
            if cfg.warm_icache:
                self._warm_icache()
            if cfg.warm_dcache:
                self._warm_dcache()
            snapshots[key] = (hier.l1i.export_sets(), hier.l1d.export_sets(),
                              hier.l2.export_sets())
            return
        hier.l1i.load_sets(snap[0])
        hier.l1d.load_sets(snap[1])
        hier.l2.load_sets(snap[2])

    def _warm_icache(self) -> None:
        """Pre-install the program's code lines in the L1I and L2."""
        cfg = self.config.hierarchy
        from ..isa.program import CODE_BASE, INST_BYTES

        code_bytes = len(self.trace.program) * INST_BYTES
        for pc in range(CODE_BASE, CODE_BASE + code_bytes, cfg.l1i.line_bytes):
            self.hierarchy.l2.insert(cfg.l2.line_addr(pc))
            self.hierarchy.l1i.insert(cfg.l1i.line_addr(pc))

    def _warm_dcache(self) -> None:
        """Pre-install the data image's lines in the L2, and only the
        program's declared hot regions in the L1D.

        Ascending address order, stopped at ``assoc`` data words per
        set: each L2 set keeps its lowest-addressed lines, the highest
        of them most-recently-used.  Kernels place hot structures at low
        addresses and cold regions high, so a structure larger than the
        L2 keeps its (hot) head resident.  The rest of the L1 is
        deliberately left cold: hot working sets re-warm through cheap
        L2 hits within the first couple of thousand instructions, while
        scan windows larger than the L1 would thrash it from any
        starting state — pre-filling it would only distort the first
        pass.
        """
        cfg = self.config.hierarchy
        # No set ever overflows: a word past its set's first `assoc` is
        # never inserted.  The cap counts data *words* per set, not
        # lines, so a set whose lines hold several words warms fewer
        # than `assoc` lines; counting lines would change the warmed
        # state and every pinned result.  `line_addr` / `set_index` are
        # inlined: once per word.
        per_set: dict[int, int] = {}
        assoc = cfg.l2.assoc
        line_bytes = cfg.l2.line_bytes
        set_mask = cfg.l2.num_sets - 1
        insert = self.hierarchy.l2.insert
        get_count = per_set.get
        for addr in sorted(self.trace.program.data):
            l2_line = addr // line_bytes
            set_index = l2_line & set_mask
            count = get_count(set_index, 0)
            if count >= assoc:
                continue
            insert(l2_line)
            per_set[set_index] = count + 1
        for hot in self.trace.program.hot_regions:
            for addr in range(hot[0], hot[1], cfg.l1d.line_bytes):
                self.hierarchy.l1d.insert(cfg.l1d.line_addr(addr))

    # ==================================================================
    # main loop
    # ==================================================================
    def run(self) -> SimResult:
        """Simulate to completion and return the result."""
        max_cycles = self._max_cycles
        step_cycle = self.step_cycle
        done = self.done
        trace_len = self._trace_len
        # `cursor >= len(trace)` is a necessary condition of every
        # model's done() — pre-filtering it keeps the completion check
        # out of the per-cycle loop until the run is actually draining.
        while not (self.cursor >= trace_len and done()):
            if self.cycle > max_cycles:
                raise self._diverged()
            step_cycle()
        return self.finalize()

    def _diverged(self) -> SimulationDiverged:
        """The safety limit's error: raised by :meth:`run` before a
        cycle past ``max_cycles``, and by a ``step_cycle`` that runs
        several cycles per call at the same point."""
        return SimulationDiverged(
            f"{self.name}: exceeded {self._max_cycles} cycles "
            f"({self.stats.instructions}/{self._trace_len} committed)"
        )

    def finalize(self) -> SimResult:
        """Seal aggregate stats and package the result (once the run
        is done)."""
        self.stats.cycles = max(self.cycle, self.last_completion)
        if self._obs_probe is not None:
            self._record_probe()
        return SimResult(self.name, self.trace.program.name, self.stats,
                         phase_stats=self._finalize_phase_stats())

    def _record_probe(self) -> None:
        """Publish the leap-audit probe into the obs metrics registry.

        Observation only — reads sealed aggregates, mutates nothing the
        simulation can see.  Step cycles are derived (total − leapt), so
        the hot loop never counts them.
        """
        from ..obs import metrics as _obs_metrics

        probe = self._obs_probe
        registry = _obs_metrics.REGISTRY
        leapt = probe["leapt"]
        registry.counter("engine.leaps").inc(probe["leaps"])
        registry.counter("engine.cycles.leapt").inc(leapt)
        registry.counter("engine.cycles.stepped").inc(
            max(0, self.stats.cycles - leapt))
        for source, count in probe["sources"].items():
            registry.counter(f"engine.horizon.{source}").inc(count)
        if self.stats.cycles:
            # Commits per kilocycle, one histogram per model: the
            # leap-audit open item's "does leaping skew commit rate"
            # question gets its distribution.
            registry.histogram(f"engine.commit_kipc.{self.name}").observe(
                1000.0 * self.stats.instructions / self.stats.cycles)

    def done(self) -> bool:
        """The run is over: every instruction issued and completed, back
        in normal mode (a runahead period or advance episode always ends
        in it), and the store queue drained."""
        return (
            self.cursor >= self._trace_len
            and self.fetch_head == self.cursor
            and self.mode == NORMAL
            and self.store_queue.empty
            and self.cycle >= self.last_completion
        )

    # ==================================================================
    # fetch (shared by every model's step_cycle)
    # ==================================================================
    def do_fetch(self, cycle: int, head: int, cursor: int) -> int:
        """Fetch up to ``width`` instructions through the I$ into the
        window ``[head, cursor)``; stores and returns the new cursor.

        Callers apply the eligibility guard first (not branch-blocked,
        past the resume latch, trace left, room in the window); fetch
        made progress when the returned cursor moved.
        """
        end = cursor + self._width
        room = head + self._fq_depth
        if room < end:
            end = room
        if self._trace_len < end:
            end = self._trace_len
        insts = self._insts
        iline = self._iline
        decode_ready = self._decode_ready
        # Pipelined front end: decode+reg-read after the (possibly
        # stale-line) I$ data returns, never less than the full
        # fetch-to-issue depth from this cycle.
        earliest = cycle + self._frontend_depth
        last_line = self._last_fetch_line
        ifetch_ready = self._ifetch_ready
        while cursor < end:
            dyn = insts[cursor]
            line = iline[cursor]
            if line != last_line:
                result = self.hierarchy.fetch_access(dyn.pc, cycle)
                if result.stalled:
                    break
                last_line = line
                ifetch_ready = result.ready_cycle
            ready = ifetch_ready + 2
            decode_ready[cursor] = ready if ready > earliest else earliest
            if dyn.is_control:
                ok = self._predicted_ok[cursor] = self.predictor.predict(dyn)
                if not ok:
                    # Wrong path from here: hold fetch until the branch
                    # resolves.
                    self.stats.branch_mispredicts += 1
                    cursor += 1
                    self.fetch_blocked = True
                    break
            cursor += 1
            if dyn.taken:
                # Correctly predicted taken: one-cycle redirect bubble.
                self.fetch_resume_cycle = cycle + 1
                last_line = -1
                break
        self.cursor = cursor
        self._last_fetch_line = last_line
        self._ifetch_ready = ifetch_ready
        return cursor

    # ==================================================================
    # issue + execute
    # ==================================================================
    def try_issue(self, idx: int) -> str:
        """Issue the head (dynamic index ``idx``) under in-order rules:
        ``ISSUED``, ``STALLED``, or ``ENTERED`` when it is a load whose
        miss starts a runahead period or an advance episode.

        The normal-mode rule of all five models.  Loads forward from the
        ``store_queue``, whichever kind it is: a chained store buffer's
        forward adds its excess chain hops to the latency, and an
        indexed one's :class:`~repro.pipeline.store_queue.IndexedStall`
        holds the load until the conflicting store drains."""
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
            fwd = self.store_queue.forward(dyn.addr)
            if fwd is not None:
                if type(fwd) is IndexedStall:
                    self.stats.stalls.store_buffer_full += 1
                    return STALLED
                hops = fwd.excess_hops
                self.stats.store_forward_hits += 1
                self.stats.store_forward_hops += hops
                self._check_forward(fwd, dyn)
                completion = cycle + self._l1d_hit_latency + hops
            elif (ready := self.hierarchy.data_hit_cycle(dyn.addr,
                                                         cycle)) is not None:
                # L1 hits dominate most traces; the fast probe skips the
                # full data_access arm walk.  record_miss is a no-op for
                # an L1 hit, and an L1 hit never starts a period.
                completion = ready
            else:
                result = self.hierarchy.data_access(dyn.addr, cycle)
                if result.stalled:
                    self.stats.stalls.mshr_full += 1
                    return STALLED
                self.record_miss(result, idx)
                if self._try_enter(dyn, result):
                    return ENTERED
                completion = result.ready_cycle
        elif kind == KIND_STORE:
            if self.store_queue.full:
                self.stats.stalls.store_buffer_full += 1
                return STALLED
            self.store_queue.allocate(dyn.addr, dyn.store_val)
            completion = cycle + 1
        else:
            completion = cycle + self._exec_done[idx]
        if port_int:
            ports.int_free -= 1
        else:
            ports.mem_free -= 1
        self.commit(dyn, completion)
        return ISSUED

    def _try_enter(self, dyn: DynInst, result: MemResult) -> bool:
        """Start a runahead period or an advance episode if this data
        miss qualifies, issuing the load as its first instruction.
        Never on the plain in-order core;
        :class:`~repro.baselines.runahead.RunaheadCore` and
        :class:`~repro.core.icfp.ICFPCore` override it."""
        return False

    def _is_long_miss(self, result: MemResult) -> bool:
        """A DRAM fill, or a merge into an in-flight L2-miss fill with
        more than twice the L2 hit latency left: a miss worth running
        ahead of.  Stream-buffer hits and merges into short fills return
        in L2-hit-class time, so they are short misses."""
        level = result.level
        return level == MEMORY or (
            level == PENDING and result.mshr is not None
            and result.mshr.is_l2
            and result.ready_cycle - self.cycle > 2 * self._l2_hit_latency)

    def _check_forward(self, fwd, dyn: DynInst) -> None:
        """Validation hook on a store-to-load forward: none here;
        :class:`~repro.core.icfp.ICFPCore` checks the forwarded value
        under ``ICFPFeatures(validate=True)``."""

    def commit(self, dyn: DynInst, completion: int) -> None:
        """Book-keeping for a successfully issued instruction."""
        dst = dyn.dst
        if dst is not None:
            self.reg_ready[dst] = completion
        stats = self.stats
        stats.instructions += 1
        if dyn.is_load:
            stats.loads += 1
        elif dyn.is_store:
            stats.stores += 1
        if dyn.is_branch:
            stats.branches += 1
        if self._phase_of is not None:
            self._phase_commit(dyn)
        if dyn.is_control:
            self.resolve_control(dyn, completion)
        if completion > self.last_completion:
            self.last_completion = completion

    def resolve_control(self, dyn: DynInst, completion: int) -> None:
        self.predictor.update(dyn)
        if not self._predicted_ok[dyn.index]:
            self._redirect_fetch(completion)

    def _redirect_fetch(self, completion: int) -> None:
        """A mispredicted branch resolves at ``completion``: fetch
        resumes on the right path then.  The refill penalty follows from
        the decode_ready computed at the new fetch time."""
        self.fetch_blocked = False
        self.fetch_resume_cycle = completion
        self._last_fetch_line = -1

    def _restart_fetch(self, index: int) -> None:
        """Flush the fetch window and refetch from dynamic index
        ``index`` on the next cycle (a runahead exit, an iCFP squash or
        fallback rewind).  A flush resets both ends of the window."""
        self.cursor = self.fetch_head = index
        self._redirect_fetch(self.cycle + 1)

    def record_miss(self, result: MemResult, index: int = -1) -> None:
        """Fold one hierarchy access into miss/MLP statistics.

        ``index`` is the dynamic index of the accessing instruction;
        with phase attribution active it routes the miss counters into
        that instruction's phase bucket as well (callers that lack an
        instruction context omit it and charge the aggregates only).
        """
        stats = self.stats
        if result.level == "mshr":
            stats.secondary_misses += 1
        elif result.l1_miss:
            stats.l1d_misses += 1
        if result.l2_miss:
            stats.l2_misses += 1
        if result.new_fill:
            stats.d_mlp.add(self.cycle, result.ready_cycle)
            if result.l2_miss:
                stats.l2_mlp.add(self.cycle, result.ready_cycle)
        if self._phase_of is not None and index >= 0:
            phase = self._phase_stats[self._phase_of[index]]
            if result.level == "mshr":
                phase.secondary_misses += 1
            elif result.l1_miss:
                phase.l1d_misses += 1
            if result.l2_miss:
                phase.l2_misses += 1

    # ==================================================================
    # phase attribution (observation only — never a timing input)
    # ==================================================================
    def _phase_commit(self, dyn: DynInst) -> None:
        """Charge one committed instruction to its phase bucket.

        Called only when attribution is live (``_phase_of`` non-None).
        A commit whose phase differs from the current one also settles
        the elapsed cycle span against the outgoing phase, so the
        buckets' cycle counters partition ``[0, stats.cycles)`` exactly.
        """
        index = self._phase_of[dyn.index]
        if index != self._phase_cur:
            cycle = self.cycle
            self._phase_stats[self._phase_cur].cycles += cycle - self._phase_mark
            self._phase_mark = cycle
            self._phase_cur = index
        phase = self._phase_stats[index]
        phase.instructions += 1
        if dyn.is_load:
            phase.loads += 1
        elif dyn.is_store:
            phase.stores += 1
        if dyn.is_branch:
            phase.branches += 1

    def _phase_advance(self, index: int) -> None:
        """Mirror one ``advance_instructions`` increment (guarded call)."""
        self._phase_stats[self._phase_of[index]].advance_instructions += 1

    def _phase_rally(self, index: int) -> None:
        """Mirror one ``rally_instructions`` increment (guarded call)."""
        self._phase_stats[self._phase_of[index]].rally_instructions += 1

    def _finalize_phase_stats(self) -> list[PhaseStats] | None:
        """The run's phase buckets, with the tail cycle span settled."""
        regions = self._phase_regions
        if not regions:
            return None
        if self._phase_stats is None:
            # Single region: the one bucket is the aggregate, by
            # definition — synthesised here so the hot paths never pay.
            return [PhaseStats.from_aggregate(regions[0][0], self.stats)]
        total = self.stats.cycles
        self._phase_stats[self._phase_cur].cycles += total - self._phase_mark
        self._phase_mark = total
        return self._phase_stats

    # ==================================================================
    # event-horizon leap
    # ==================================================================
    def _scan_horizons(self, cycle: int) -> tuple[int, str | None]:
        """The earliest future wake-up and which component supplies it.

        The single candidate scan behind both the leap and the obs
        probe's horizon-source tally: each stateful component exposes
        its earliest future event through the ``next_event_cycle()``
        contract (MSHR files via the hierarchy, the store queue,
        subclass machinery via :meth:`next_event_cycle`); the scoreboard
        wake-up of the issue head and the fetch-resume latch are folded
        in directly.  Returns ``(best, source)``; ``best == 0`` means no
        future event was found (cycle counts start at 1).

        Completeness is the leap's correctness contract: every deferred
        action of every mode must be represented here (or by a subclass
        hook this scans), because a leap past an unlisted wake-up skips
        work a stepped cycle would have done.  ``make leap-audit`` (the
        full leap-vs-stepped differential sweep) guards it.
        """
        # Track the earliest future wake-up incrementally — this runs on
        # every idle cycle, so no candidate list is materialised.
        best = 0
        source = None
        head = self.fetch_head
        cursor = self.cursor
        if head < cursor:
            c = self._head_wakeup(head)
            if c > cycle:
                best = c
                source = "head"
        # The front end acts (fetches into the window, with any I$ latency
        # folded into decode_ready) on every cycle it is eligible: not
        # branch-blocked, past the resume latch (taken-branch bubble,
        # runahead restart, SLTP's SRL drain push), with queue room and
        # trace left.  Its wake-up is therefore exactly the resume latch;
        # NOT the last I$ fill time — a line change probes the I$ fresh
        # and can hit immediately.  When the latch is in the past, a
        # fetch that failed this cycle was I$-MSHR-stalled (side-effect
        # free), and its retry rides the hierarchy's fill horizon below.
        if (cursor < self._trace_len and not self.fetch_blocked
                and cursor - head < self._fq_depth):
            c = self.fetch_resume_cycle
            if c > cycle and (not best or c < best):
                best = c
                source = "fetch"
        c = self.store_queue.next_event_cycle(cycle)
        if c is not None and c > cycle and (not best or c < best):
            best = c
            source = "store_queue"
        c = self.hierarchy.next_event_cycle()
        if c is not None and c > cycle and (not best or c < best):
            best = c
            source = "hierarchy"
        c = self.next_event_cycle()
        if c is not None and c > cycle and (not best or c < best):
            best = c
            source = "subclass"
        c = self.last_completion
        if c > cycle and (not best or c < best):
            best = c
            source = "completion"
        return best, source

    def _leap_to_horizon(self) -> None:
        """Jump the clock to the next cycle anything can happen.

        Pure optimisation: when a cycle makes no progress, every wake-up
        source is a known future timestamp (:meth:`_scan_horizons`), so
        the clock leaps to the minimum instead of idling through the
        stall region one cycle at a time.  ``leap=False`` cores skip
        this entirely — they are the cycle-by-cycle reference.
        """
        if not self._leap:
            return
        cycle = self.cycle
        best, source = self._scan_horizons(cycle)
        if best > cycle + 1:
            probe = self._obs_probe
            if probe is not None:
                probe["leaps"] += 1
                probe["leapt"] += best - 1 - cycle
                probe["sources"][source] = probe["sources"].get(source, 0) + 1
            self.cycle = best - 1  # step_cycle increments first

    def next_event_cycle(self) -> int | None:
        """Subclass horizon hook: earliest future cycle the subclass's
        own machinery (mode timers, rally waits, gated drains) can act."""
        return None

    def _head_wakeup(self, idx: int) -> int:
        """Earliest cycle the window head ``idx`` could issue (for the
        leap).

        The base model stalls on source *and* destination (WAW)
        readiness; latency-tolerant subclasses override this to match
        their own stall rules.
        """
        earliest = self._decode_ready[idx]
        reg_ready = self.reg_ready
        for src in self._srcs[idx]:
            ready = reg_ready[src]
            if ready > earliest:
                earliest = ready
        dst = self._dst[idx]
        if dst is not None and dst != ZERO_REG:
            ready = reg_ready[dst]
            if ready > earliest:
                earliest = ready
        return earliest
