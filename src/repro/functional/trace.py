"""Dynamic instruction traces.

The functional executor materialises each program into an indexable
:class:`Trace` of :class:`DynInst` records.  Timing models *replay*
traces: Runahead re-execution, Multipass passes, and iCFP rallies all
revisit the same records.  Records carry values (operands, results,
addresses) so that iCFP's merge and forwarding machinery can be checked
for architectural correctness, not just timed.

For the timing hot loops the trace also exposes :class:`TraceHot`: the
columns the engine's fetch and issue paths read (issue kind, source
operands, destination, execute latency, port, PC), flattened into
parallel lists indexed by dynamic instruction number.  Kind, latency
and port describe the static instruction, so they are derived once per
PC and gathered, not re-derived per dynamic record.  The arrays are
built once per trace and cached on it, so every model, sweep value, and
rally pass that replays the (engine-cached) trace shares one set of
flat lists instead of chasing Python objects.
"""

from __future__ import annotations

from ..isa.instructions import EXEC_LATENCY, Instruction, OpClass

#: Issue-kind codes in :attr:`TraceHot.kind` (small ints compare faster
#: than enum members in the issue loops).
KIND_OTHER = 0
KIND_LOAD = 1
KIND_STORE = 2


def classify(opclass) -> tuple[bool, bool, bool, bool, bool]:
    """``(is_load, is_store, is_mem, is_branch, is_control)`` of an op class."""
    is_load = opclass is OpClass.LOAD
    is_store = opclass is OpClass.STORE
    is_branch = opclass is OpClass.BRANCH
    return (is_load, is_store, is_load or is_store, is_branch,
            is_branch or opclass is OpClass.JUMP)


class DynInst:
    """One dynamic instruction instance.

    Attributes
    ----------
    index:
        Position in the dynamic stream (0-based).
    pc / next_pc:
        Byte PC of this instruction and of its dynamic successor.
    inst:
        The static :class:`Instruction`.
    srcs / dst:
        Flat register operands (copies of the static operands, kept here
        because the timing inner loops touch them constantly).
    src_vals:
        Operand values read during functional execution.
    result:
        Value written to ``dst`` (loads: the loaded value), else ``None``.
    addr:
        Byte address for memory operations, else ``None``.
    store_val:
        Value written to memory for stores, else ``None``.
    taken / target_pc:
        Control-flow outcome for branches and jumps.
    is_load / is_store / is_mem / is_branch / is_control:
        Precomputed classification flags.  These are plain slot
        attributes (not properties): the timing models read them
        millions of times per simulation.
    """

    __slots__ = (
        "index",
        "pc",
        "next_pc",
        "inst",
        "op",
        "opclass",
        "srcs",
        "dst",
        "src_vals",
        "result",
        "addr",
        "store_val",
        "taken",
        "target_pc",
        "is_load",
        "is_store",
        "is_mem",
        "is_branch",
        "is_control",
    )

    def __init__(self, index: int, pc: int, inst: Instruction) -> None:
        self.index = index
        self.pc = pc
        self.next_pc = pc + 4
        self.inst = inst
        self.op = inst.op
        opclass = inst.opclass
        self.opclass = opclass
        self.srcs = inst.srcs
        self.dst = inst.dst
        self.src_vals: tuple = ()
        self.result = None
        self.addr: int | None = None
        self.store_val = None
        self.taken = False
        self.target_pc: int | None = None
        (self.is_load, self.is_store, self.is_mem, self.is_branch,
         self.is_control) = classify(opclass)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        extra = ""
        if self.addr is not None:
            extra = f" @{self.addr:#x}"
        return f"<DynInst #{self.index} pc={self.pc:#x} {self.inst}{extra}>"


class TraceHot:
    """Parallel per-instruction arrays for the timing-model issue loops.

    One entry per dynamic instruction, indexed by ``DynInst.index``.
    Every field the per-cycle paths consult repeatedly lives here as a
    flat list, so the inner loops do a single indexed load instead of an
    attribute chase per field.
    """

    __slots__ = ("kind", "srcs", "dst", "exec_done", "port_int",
                 "pc", "nsrc", "src0", "src1", "_ilines")

    def __init__(self, insts) -> None:
        # Single source of truth for port classification: the pipeline's
        # own table.  Local import: keeps repro.functional importable
        # without the pipeline package (and any future cycles) at
        # module-load time; this runs once per trace.
        from ..pipeline.resources import INT_PORT, port_kind

        self.pc = pcs = [dyn.pc for dyn in insts]
        # Issue kind, execute latency and port are properties of the
        # static instruction (a PC names one): derive each once per PC
        # from a representative record, then gather per dynamic one.
        kind_of: dict[int, int] = {}
        done_of: dict[int, int] = {}
        port_of: dict[int, bool] = {}
        for pc, dyn in dict(zip(pcs, insts)).items():
            kind_of[pc] = (KIND_LOAD if dyn.is_load
                           else KIND_STORE if dyn.is_store else KIND_OTHER)
            done_of[pc] = EXEC_LATENCY[dyn.opclass]
            port_of[pc] = port_kind(dyn.opclass) == INT_PORT
        self.kind = [kind_of[pc] for pc in pcs]
        #: Execute latency for non-memory ops (memory timing comes from
        #: the hierarchy / store buffers instead).
        self.exec_done = [done_of[pc] for pc in pcs]
        self.port_int = [port_of[pc] for pc in pcs]
        self.srcs = srcs = [dyn.srcs for dyn in insts]
        self.dst = [dyn.dst for dyn in insts]
        #: Unrolled source operands: the scoreboard loops run per issue
        #: attempt, and almost every instruction has <= 2 sources, so the
        #: hot paths check src0/src1 scalars and fall back to the full
        #: tuple only for wider ops (see ``nsrc``).
        self.nsrc = [len(s) for s in srcs]
        self.src0 = [s[0] if s else 0 for s in srcs]
        self.src1 = [s[1] if len(s) > 1 else 0 for s in srcs]
        #: I$ line index per instruction, keyed by line size (the one
        #: config-dependent input); built on first use per geometry.
        self._ilines: dict[int, list[int]] = {}

    def iline(self, line_bytes: int) -> list[int]:
        """Per-instruction I$ line index at ``line_bytes`` granularity."""
        lines = self._ilines.get(line_bytes)
        if lines is None:
            lines = self._ilines[line_bytes] = [
                pc // line_bytes for pc in self.pc
            ]
        return lines


class Trace:
    """An indexable dynamic instruction stream plus final state.

    Attributes
    ----------
    program:
        The program that generated the trace.
    insts:
        Dynamic instruction records in execution order.
    final_state:
        Architectural state after the last traced instruction — the
        golden reference for timing-model validation.
    completed:
        True when the program reached ``halt`` within the instruction
        budget; False when the trace was truncated at the budget.
    """

    def __init__(self, program, insts, final_state, completed: bool) -> None:
        self.program = program
        self.insts = insts
        self.final_state = final_state
        self.completed = completed
        # Built at materialization: the records are final once the trace
        # exists, and the engine's trace cache shares the arrays across
        # every simulation of this trace.
        self._hot = TraceHot(insts)
        self._phase_index: list[int] | None = None
        self._num_loads: int | None = None
        self._num_stores: int | None = None
        self._num_branches: int | None = None
        self._footprints: dict[int, int] = {}

    def __len__(self) -> int:
        return len(self.insts)

    def __getitem__(self, index: int) -> DynInst:
        return self.insts[index]

    def __iter__(self):
        return iter(self.insts)

    @property
    def hot(self) -> TraceHot:
        """The flat issue-loop arrays (built once at materialization).

        Timing models never mutate traces, so one array set serves every
        core (and, through the engine's trace cache, every campaign
        cell) that replays this trace.
        """
        return self._hot

    def with_phase_regions(self, regions) -> "Trace":
        """The same dynamic stream under a different phase-region map.

        For differential probes and benches that compare attribution
        on/off/forced over one trace: the records (and therefore every
        timing decision) are shared; only the observation map differs.
        """
        import dataclasses

        program = dataclasses.replace(self.program,
                                      phase_regions=tuple(regions))
        return Trace(program, self.insts, self.final_state, self.completed)

    def phase_index(self) -> list[int]:
        """Per-dynamic-instruction phase index (flat, like the hot arrays).

        Derived once from the program's static ``phase_regions`` map and
        cached: a dynamic instruction's phase is a table lookup on its
        static index.  Only multi-phase programs ever ask (the engine
        synthesises the single bucket from aggregates at run end), so
        single-phase simulations never pay for the build.
        """
        index = self._phase_index
        if index is None:
            from ..isa.program import CODE_BASE, INST_BYTES

            regions = self.program.phase_regions
            static = [0] * len(self.program.instructions)
            for phase, (_name, lo, hi) in enumerate(regions):
                for i in range(lo, hi):
                    static[i] = phase
            index = self._phase_index = [
                static[(pc - CODE_BASE) // INST_BYTES] for pc in self._hot.pc
            ]
        return index

    # ------------------------------------------------------------------
    # characterisation helpers (used by workload tuning tests/benches)
    # ------------------------------------------------------------------
    def count(self, predicate) -> int:
        return sum(1 for d in self.insts if predicate(d))

    @property
    def num_loads(self) -> int:
        if self._num_loads is None:
            self._num_loads = self.count(lambda d: d.is_load)
        return self._num_loads

    @property
    def num_stores(self) -> int:
        if self._num_stores is None:
            self._num_stores = self.count(lambda d: d.is_store)
        return self._num_stores

    @property
    def num_branches(self) -> int:
        if self._num_branches is None:
            self._num_branches = self.count(lambda d: d.is_branch)
        return self._num_branches

    def mem_footprint_lines(self, line_bytes: int = 64) -> int:
        """Distinct cache lines touched by data accesses (memoized —
        sweeps ask per point, the answer never changes per trace)."""
        cached = self._footprints.get(line_bytes)
        if cached is None:
            lines = {d.addr // line_bytes
                     for d in self.insts if d.addr is not None}
            cached = self._footprints[line_bytes] = len(lines)
        return cached
