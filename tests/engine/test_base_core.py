"""Unit tests for the base in-order timing model."""

import dataclasses
import gc
import weakref

import pytest

from repro.baselines import InOrderCore, MultipassCore, RunaheadCore, SLTPCore
from repro.core.icfp import ICFPCore, ICFPFeatures
from repro.core.store_buffer import ChainedStoreBuffer
from repro.engine import CoreModel, ISSUED, SimulationDiverged
from repro.engine.base import ENTERED, NORMAL
from repro.functional import run_program
from repro.harness.experiment import ExperimentConfig, MODELS, make_core
from repro.isa import Assembler, R, assemble_text
from repro.memory import CacheConfig, HierarchyConfig
from repro.pipeline import MachineConfig, StoreQueue
from repro.workloads import trace_by_name


def quick_config(**over):
    """Small-memory config so unit tests stay deterministic and fast."""
    base = dict(l2_hit_latency=20)
    cfg = MachineConfig.hpca09(**base)
    return cfg


def sim_text(text, config=None, max_instructions=100_000):
    trace = run_program(assemble_text(text), max_instructions=max_instructions)
    core = InOrderCore(trace, config=config or quick_config())
    return core.run()


def test_empty_ish_program():
    r = sim_text("halt")
    assert r.instructions == 1
    assert r.cycles >= 1


def test_all_instructions_commit():
    r = sim_text(
        """
        li r1, 10
        li r2, 0
        loop:
            addi r2, r2, 1
            bne r2, r1, loop
        halt
        """
    )
    assert r.instructions == 2 + 10 * 2 + 1


def test_ipc_bounded_by_width():
    r = sim_text("\n".join(["addi r1, r1, 1"] * 200 + ["halt"]))
    assert r.ipc <= 2.0 + 1e-9


def test_independent_alu_pairs_dual_issue():
    # Alternating chains let 2 instructions issue per cycle.
    body = []
    for _ in range(100):
        body.append("addi r1, r1, 1")
        body.append("addi r2, r2, 1")
    r = sim_text("\n".join(body + ["halt"]))
    assert r.ipc > 1.2  # clearly exploiting both int ports


def test_dependent_chain_is_serialised():
    r = sim_text("\n".join(["addi r1, r1, 1"] * 200 + ["halt"]))
    r2 = sim_text(
        "\n".join(
            ["addi r1, r1, 1", "addi r2, r2, 1"] * 100 + ["halt"]
        )
    )
    assert r2.cycles < r.cycles  # independent pairs beat a serial chain


def test_multiply_latency_visible():
    serial_mul = "\n".join(["mul r1, r1, r1"] * 50 + ["halt"])
    serial_add = "\n".join(["addi r1, r1, 1"] * 50 + ["halt"])
    assert sim_text(serial_mul).cycles > sim_text(serial_add).cycles + 100


def test_load_miss_stalls_at_use_not_at_miss():
    """Independent work after a missing load proceeds; the first use stalls."""
    use_now = sim_text(
        """
        li r1, 0x80000
        ld r2, r1, 0        # cold L2 miss
        addi r3, r2, 1      # immediate use
        halt
        """
    )
    use_later = sim_text(
        """
        li r1, 0x80000
        ld r2, r1, 0        # cold L2 miss
        """
        + "\n".join(["addi r4, r4, 1"] * 100)
        + """
        addi r3, r2, 1
        halt
        """
    )
    # 100 filler instructions hide under the miss: roughly equal cycles.
    assert use_later.cycles < use_now.cycles + 120
    assert use_later.instructions == use_now.instructions + 100


def test_independent_misses_overlap_in_baseline():
    """Two independent cold misses issued back-to-back share latency."""
    one_miss = sim_text(
        """
        li r1, 0x80000
        ld r2, r1, 0
        addi r3, r2, 1
        halt
        """
    )
    two_misses = sim_text(
        """
        li r1, 0x80000
        li r4, 0xA0000
        ld r2, r1, 0
        ld r5, r4, 0
        addi r3, r2, 1
        addi r6, r5, 1
        halt
        """
    )
    assert two_misses.cycles < one_miss.cycles + 100  # overlapped, not serial


def test_dependent_misses_serialise_in_baseline():
    a = Assembler()
    # Pointer chain: mem[0x80000] -> 0xA0000, mem[0xA0000] -> 0xC0000.
    a.word(0x80000, 0xA0000)
    a.word(0xA0000, 0xC0000)
    a.li(R.r1, 0x80000)
    a.ld(R.r1, R.r1, 0)
    a.ld(R.r1, R.r1, 0)
    a.addi(R.r2, R.r1, 0)
    a.halt()
    trace = run_program(a.assemble())
    r = InOrderCore(trace, config=quick_config()).run()
    assert r.cycles > 800  # two serialised ~400-cycle misses


def test_store_then_load_forwards():
    r = sim_text(
        """
        li r1, 0x2000
        li r2, 5
        st r2, r1, 0
        ld r3, r1, 0
        addi r4, r3, 1
        halt
        """
    )
    assert r.stats.store_forward_hits == 1


def test_committed_memory_matches_functional():
    text = """
        li r1, 0x2000
        li r2, 1
        li r3, 0
        loop:
            st r3, r1, 0
            addi r1, r1, 8
            addi r3, r3, 1
            bne r3, r2, loop
        st r3, r1, 0
        halt
    """
    trace = run_program(assemble_text(text))
    core = InOrderCore(trace, config=quick_config())
    core.run()
    for addr, value in core.committed_memory.items():
        assert trace.final_state.memory[addr] == value
    assert set(core.committed_memory) == {
        a for a, _ in trace.final_state.memory.items()
    }


def test_branch_mispredict_costs_cycles():
    """Data-dependent unpredictable branches slow execution down."""
    predictable = sim_text(
        """
        li r1, 0
        li r2, 400
        loop:
            addi r1, r1, 1
            bne r1, r2, loop
        halt
        """
    )
    # A pseudo-random alternating branch pattern on the same trip count.
    noisy = sim_text(
        """
        li r1, 0
        li r2, 400
        li r5, 0x9E3779B9
        li r6, 0
        loop:
            addi r1, r1, 1
            mul r6, r6, r5
            addi r6, r6, 17
            shli r7, r6, 33
            shr  r7, r7, r1
            andi r7, r7, 1
            beq r7, r0, skip
            nop
        skip:
            bne r1, r2, loop
        halt
        """
    )
    assert noisy.stats.branch_mispredicts > 20


def test_simulation_diverged_guard():
    cfg = dataclasses.replace(quick_config(), max_cycles=10)
    trace = run_program(assemble_text("\n".join(["nop"] * 100 + ["halt"])))
    with pytest.raises(SimulationDiverged):
        InOrderCore(trace, config=cfg).run()


#: One cold DRAM miss; in the iCFP family a 140-long chain on its result
#: overflows the 128-entry slice buffer, and the core falls back until
#: the episode has merged.
MISS_TEXT = "li r1, 0x80000\nld r2, r1, 0\naddi r3, r2, 1\nhalt"
FALLBACK_TEXT = ("li r1, 0x80000\nld r2, r1, 0\n" + "addi r2, r2, 1\n" * 140
                 + "halt")


@pytest.mark.parametrize("cls, leap", [
    pytest.param(cls, leap, id=("" if cls is InOrderCore else f"{cls.name}-")
                 + ("leap" if leap else "stepped"))
    for cls in (InOrderCore, RunaheadCore, MultipassCore, ICFPCore, SLTPCore)
    for leap in (True, False)
])
def test_diverged_guard_is_not_leapt_over(cls, leap):
    """The one idle window here (a cold DRAM miss) is a single leap of
    hundreds of cycles in-order, a runahead period that one
    ``step_cycle`` call runs through in the runahead family, and a
    fallback that one call runs through in the iCFP family.  A limit
    inside that window must still raise in both engines, with the
    message ``run()`` gives, and stepped cycle by cycle, on the first
    cycle past the limit; a leap, a stretch or a fallback past it never
    yields a truncated result."""
    icfp_family = issubclass(cls, ICFPCore)
    trace = run_program(assemble_text(
        FALLBACK_TEXT if icfp_family else MISS_TEXT))
    full = cls(trace, config=quick_config(), leap=leap).run()
    assert full.cycles > 200
    limit = 300 if icfp_family else 50
    short = dataclasses.replace(quick_config(), max_cycles=limit)
    if cls is not InOrderCore:
        # The call that runs the window: from cycle `entered` to the
        # one it returns on.
        core = cls(trace, config=quick_config(), leap=leap)
        while not core.done() and (
                not core.stats.simple_runahead_entries if icfp_family
                else core.mode == NORMAL):
            entered = core.cycle + 1
            core.step_cycle()
        assert entered < limit < core.cycle
    core = cls(trace, config=short, leap=leap)
    with pytest.raises(SimulationDiverged,
                       match=rf"^{cls.name}: exceeded {limit} cycles "
                             rf"\(\d/{len(trace)} committed\)$"):
        core.run()
    if not leap:
        assert core.cycle == limit + 1
    exact = dataclasses.replace(quick_config(), max_cycles=full.cycles)
    fits = cls(trace, config=exact, leap=leap).run()
    assert (fits.cycles, fits.instructions) == (full.cycles, full.instructions)


def _with_cache(level, **over):
    """The Table 1 config with one cache level's parameters changed."""
    cfg = quick_config()
    hier = cfg.hierarchy
    cache = dataclasses.replace(getattr(hier, level), **over)
    return dataclasses.replace(
        cfg, hierarchy=dataclasses.replace(hier, **{level: cache}))


#: Every config constant the per-cycle body reads from the core rather
#: than the config: (config with that constant moved off its Table 1
#: value, reader of the core's copy, the moved value).
CORE_CONSTANTS = {
    "width": (dataclasses.replace(quick_config(), width=1),
              lambda core: core._width, 1),
    "int_ports": (dataclasses.replace(quick_config(), int_ports=1),
                  lambda core: core.ports.int_capacity, 1),
    "mem_ports": (dataclasses.replace(quick_config(), mem_ports=2),
                  lambda core: core.ports.mem_capacity, 2),
    "store_buffer_entries": (
        dataclasses.replace(quick_config(), store_buffer_entries=4),
        lambda core: core.store_queue.capacity, 4),
    "fetch_queue_depth": (
        dataclasses.replace(quick_config(), fetch_queue_depth=6),
        lambda core: core._fq_depth, 6),
    "frontend_depth": (dataclasses.replace(quick_config(), frontend_depth=9),
                       lambda core: core._frontend_depth, 9),
    "max_cycles": (dataclasses.replace(quick_config(), max_cycles=12345),
                   lambda core: core._max_cycles, 12345),
    "l1i.line_bytes": (_with_cache("l1i", line_bytes=32),
                       lambda core: core._l1i_line_bytes, 32),
    "l1d.hit_latency": (_with_cache("l1d", hit_latency=5),
                        lambda core: core._l1d_hit_latency, 5),
    "l2.hit_latency": (MachineConfig.hpca09(l2_hit_latency=300),
                       lambda core: core._l2_hit_latency, 300),
}


@pytest.mark.parametrize("name", list(CORE_CONSTANTS))
def test_core_constants_follow_machine_config(name):
    """``CoreModel.__init__`` copies each constant out of the
    ``MachineConfig`` it is given, so one moved field reaches the core
    on its own."""
    config, read, value = CORE_CONSTANTS[name]
    trace = run_program(assemble_text("halt"))
    assert read(InOrderCore(trace, config=quick_config())) != value
    core = InOrderCore(trace, config=config)
    assert read(core) == value
    assert core.run().instructions == 1


@pytest.mark.parametrize("model", MODELS)
def test_normal_mode_issues_through_core_try_issue(monkeypatch, model):
    """``CoreModel.try_issue`` is every model's normal-mode issue rule:
    every call comes in normal mode, and each advance entry is one of
    its ``ENTERED`` outcomes.  The wrapper goes on the class before the
    core is built: the iCFP family dispatches through the class function
    it looked up at construction (``_mode_issue``), which an instance
    attribute would never reach."""
    counts = {"calls": 0, "entered": 0, "other_mode": 0}
    try_issue = CoreModel.try_issue

    def counting_try_issue(self, idx):
        counts["calls"] += 1
        if self.mode != NORMAL:
            counts["other_mode"] += 1
        outcome = try_issue(self, idx)
        if outcome is ENTERED:
            counts["entered"] += 1
        return outcome

    monkeypatch.setattr(CoreModel, "try_issue", counting_try_issue)
    core = make_core(model, trace_by_name("mcf_like", 600),
                     ExperimentConfig())
    result = core.run()
    assert counts["other_mode"] == 0
    assert counts["entered"] == result.stats.advance_entries
    if model == "in-order":
        assert counts["calls"] >= result.instructions
    else:
        assert result.stats.advance_entries > 0


@pytest.mark.parametrize("make", [
    pytest.param(lambda trace: StoreQueue(0), id="store-queue"),
    pytest.param(lambda trace: ChainedStoreBuffer(capacity=0),
                 id="chained-store-buffer"),
    pytest.param(lambda trace: InOrderCore(trace, config=dataclasses.replace(
        quick_config(), store_buffer_entries=0)), id="in-order"),
    pytest.param(lambda trace: ICFPCore(trace, features=ICFPFeatures(
        store_buffer_entries=0)), id="icfp"),
])
def test_store_structures_need_an_entry(make):
    """A store structure with no entries could never take a store (the
    run would stall at the first one until the cycle limit), so it, and
    a core built with one, is refused at construction."""
    with pytest.raises(ValueError, match="at least one entry"):
        make(run_program(assemble_text("halt")))


def issue_cycles(core):
    """Wrap ``core.try_issue``; the returned dict maps each issued
    dynamic index to its issue cycle."""
    try_issue = core.try_issue
    issued = {}

    def recording_try_issue(idx):
        outcome = try_issue(idx)
        if outcome is ISSUED:
            issued[idx] = core.cycle
        return outcome

    core.try_issue = recording_try_issue
    return issued


def pair_program(second):
    """A load at index 0 and ``second`` at index 1: independent, in one
    fetch group, decode-ready in the same cycle."""
    a = Assembler("pair")
    a.word(0x2000, 1)
    a.word(0x2008, 2)
    a.ld(R.r2, R.r0, 0x2000)
    second(a)
    a.halt()
    return run_program(a.assemble())


def test_one_memory_port_serialises_independent_loads():
    """Table 1's single fp/load/store/branch port: two independent loads
    fetched together issue in consecutive cycles, and the wait is a
    port stall."""
    config = quick_config()
    assert (config.int_ports, config.mem_ports) == (2, 1)
    core = InOrderCore(pair_program(lambda a: a.ld(R.r3, R.r0, 0x2008)),
                       config=config)
    issued = issue_cycles(core)
    core.run()
    assert core._decode_ready[0] == core._decode_ready[1]
    assert issued[1] == issued[0] + 1
    assert core.stats.stalls.port == 1


def test_alu_op_pairs_with_a_load():
    """An ALU op in the second slot takes an integer port: it issues in
    the load's cycle without a port stall."""
    core = InOrderCore(pair_program(lambda a: a.addi(R.r3, R.r4, 1)),
                       config=quick_config())
    issued = issue_cycles(core)
    core.run()
    assert issued[1] == issued[0]
    assert core.stats.stalls.port == 0


def test_each_mispredicted_fetch_counts_once():
    """``branch_mispredicts`` counts every fetch the predictor got
    wrong, once: the same number a wrapper around ``predict`` sees."""
    trace = run_program(assemble_text(
        """
        li r1, 0
        li r2, 60
        loop:
            addi r1, r1, 1
            andi r3, r1, 3
            beq r3, r0, skip
            nop
        skip:
            bne r1, r2, loop
        halt
        """))
    core = InOrderCore(trace, config=quick_config())
    predict = core.predictor.predict
    wrong = []

    def recording_predict(dyn):
        ok = predict(dyn)
        if not ok:
            wrong.append(dyn.index)
        return ok

    core.predictor.predict = recording_predict
    stats = core.run().stats
    assert stats.branch_mispredicts == len(wrong) > 0


def test_stall_breakdown_accumulates():
    trace = run_program(
        assemble_text(
            """
            li r1, 0x80000
            ld r2, r1, 0
            addi r3, r2, 1
            halt
            """
        )
    )
    core = InOrderCore(trace, config=quick_config())
    core.run()
    assert core.stats.stalls.src_wait > 0


def test_mlp_meters_record_misses():
    trace = run_program(
        assemble_text(
            """
            li r1, 0x80000
            li r2, 0xA0000
            ld r3, r1, 0
            ld r4, r2, 0
            addi r5, r3, 1
            addi r6, r4, 1
            halt
            """
        )
    )
    core = InOrderCore(trace, config=quick_config())
    r = core.run()
    assert r.stats.l2_misses == 2
    assert r.stats.l2_mlp.average() > 1.5  # the two misses overlapped


@pytest.mark.parametrize("model", MODELS)
def test_finished_core_is_freed_by_refcount(model):
    """No reference cycle keeps a finished core (and its trace-length
    fetch-window lists) alive until the cycle collector runs: dropping
    the last reference frees it, mode transitions included."""
    trace = run_program(assemble_text(
        """
        li r1, 0x80000
        ld r2, r1, 0        # cold L2 miss: every latency-tolerant model
        addi r3, r2, 1      # enters (and leaves) its advance mode
        halt
        """
    ))
    gc.disable()
    try:
        core = make_core(model, trace, ExperimentConfig())
        core.run()
        ref = weakref.ref(core)
        del core
        assert ref() is None
    finally:
        gc.enable()
