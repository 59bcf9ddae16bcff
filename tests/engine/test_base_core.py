"""Unit tests for the base in-order timing model."""

import dataclasses
import gc
import weakref

import pytest

from repro.baselines.inorder import InOrderCore
from repro.engine import SimulationDiverged
from repro.functional import run_program
from repro.harness.experiment import ExperimentConfig, MODELS, make_core
from repro.isa import Assembler, R, assemble_text
from repro.memory import CacheConfig, HierarchyConfig
from repro.pipeline import MachineConfig


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


@pytest.mark.parametrize("leap", [True, False], ids=["leap", "stepped"])
def test_diverged_guard_is_not_leapt_over(leap):
    """The one idle window here (a cold DRAM miss) is a single leap of
    hundreds of cycles.  A limit inside that window must still raise in
    both engines; a leap past it never yields a truncated result."""
    trace = run_program(assemble_text(
        """
        li r1, 0x80000
        ld r2, r1, 0
        addi r3, r2, 1
        halt
        """
    ))
    full = InOrderCore(trace, config=quick_config(), leap=leap).run()
    assert full.cycles > 200
    short = dataclasses.replace(quick_config(), max_cycles=50)
    with pytest.raises(SimulationDiverged):
        InOrderCore(trace, config=short, leap=leap).run()
    exact = dataclasses.replace(quick_config(), max_cycles=full.cycles)
    fits = InOrderCore(trace, config=exact, leap=leap).run()
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
