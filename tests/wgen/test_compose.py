"""Phase composer: stitching, scoping, region isolation, determinism."""

import pytest

from repro.isa.assembler import Assembler, AssemblyError
from repro.isa.instructions import Opcode
from repro.wgen import PhaseSpec, WorkloadSpec, build_workload, phase_data_base
from repro.workloads.builders import KernelParams, PHASE_REGION_BYTES
from repro.workloads.suite import trace_kernel

KB = 1024


def three_phase_spec() -> WorkloadSpec:
    """The motivating chain: pointer-chase -> compute -> streaming."""
    return WorkloadSpec(
        name="chase_compute_stream",
        phases=(
            PhaseSpec("pointer_chase",
                      KernelParams(footprint_bytes=64 * KB, compute=2,
                                   iterations=40, seed=5)),
            PhaseSpec("compute",
                      KernelParams(footprint_bytes=32 * KB, hot_bytes=8 * KB,
                                   cold_period=16, compute=6, iterations=40,
                                   seed=6)),
            PhaseSpec("streaming",
                      KernelParams(hot_bytes=8 * KB, stride_bytes=16,
                                   compute=2, iterations=4, seed=7)),
        ),
    )


def test_subprogram_scopes_labels_and_redirects_halt():
    a = Assembler("scoped")
    a.label("top")
    with a.subprogram("p0", halt_to="next"):
        a.label("loop")
        a.addi(1, 1, -1)
        a.bne(1, 0, "loop")
        a.halt()
    a.label("next")
    a.halt()
    program = a.assemble()
    assert "p0.loop" in program.labels and "top" in program.labels
    kinds = [inst.op for inst in program.instructions]
    # The scoped halt became a jump; only the final halt remains.
    assert kinds.count(Opcode.HALT) == 1
    assert kinds[2] == Opcode.J
    assert program.instructions[2].target == "next"
    # Same fragment twice without scoping would collide.
    b = Assembler("collide")
    b.label("loop")
    with pytest.raises(AssemblyError, match="duplicate label"):
        b.label("loop")


def test_composed_program_has_no_halt_and_cycles_phases():
    kernel = build_workload(three_phase_spec())
    assert kernel.archetype == "pointer_chase>compute>streaming"
    assert all(inst.op != Opcode.HALT for inst in kernel.program.instructions)
    trace = trace_kernel(kernel, instructions=12_000)
    assert len(trace) == 12_000  # the budget bounds it, not a halt
    # Dynamic execution touches every phase's private data region.
    regions = {
        (dyn.addr - phase_data_base(0)) // PHASE_REGION_BYTES
        for dyn in trace if dyn.addr is not None
    }
    assert regions >= {0, 1, 2}


def test_single_phase_workload_loops_forever():
    spec = WorkloadSpec(
        name="solo",
        phases=(PhaseSpec("hash_join",
                          KernelParams(footprint_bytes=64 * KB,
                                       hot_bytes=8 * KB,
                                       unpredictable_branches=0.5,
                                       chain_depth=2, stores=True,
                                       iterations=16, seed=3)),),
    )
    trace = trace_kernel(build_workload(spec), instructions=4_000)
    assert len(trace) == 4_000
    assert trace.num_stores > 0


def test_composition_is_deterministic():
    spec = three_phase_spec()
    a, b = build_workload(spec), build_workload(spec)
    assert [repr(i) for i in a.program.instructions] == \
        [repr(i) for i in b.program.instructions]
    assert a.program.data == b.program.data
    ta = trace_kernel(a, instructions=3_000)
    tb = trace_kernel(b, instructions=3_000)
    assert [(d.pc, d.addr, d.result) for d in ta] == \
        [(d.pc, d.addr, d.result) for d in tb]


def test_new_archetypes_compose_with_old():
    spec = WorkloadSpec(
        name="join_then_gemm",
        phases=(
            PhaseSpec("hash_join",
                      KernelParams(footprint_bytes=128 * KB, chain_depth=2,
                                   unpredictable_branches=1.0,
                                   iterations=48, seed=8)),
            PhaseSpec("blocked_matrix",
                      KernelParams(footprint_bytes=256 * KB, hot_bytes=8 * KB,
                                   stride_bytes=1024, stores=True,
                                   use_fp=True, iterations=8, seed=9)),
        ),
    )
    trace = trace_kernel(build_workload(spec), instructions=8_000)
    assert len(trace) == 8_000
    assert trace.num_loads > 0 and trace.num_branches > 0


def test_every_phase_hot_region_survives_composition():
    spec = WorkloadSpec(
        name="two_hot",
        phases=(
            PhaseSpec("random_access",
                      KernelParams(hot_bytes=8 * KB, cold_period=8,
                                   iterations=32, seed=1)),
            PhaseSpec("hash_join",
                      KernelParams(hot_bytes=8 * KB, footprint_bytes=64 * KB,
                                   iterations=32, seed=2)),
        ),
    )
    program = build_workload(spec).program
    # Both phases declared hot tables; warm-up must see both (a single
    # last-wins region would leave phase 0's table cold).
    assert len(program.hot_regions) == 2
    lo0, hi0 = program.hot_regions[0]
    lo1, hi1 = program.hot_regions[1]
    assert hi0 <= lo1  # distinct per-phase regions, in phase order
