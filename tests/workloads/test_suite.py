"""Tests for the workload suite and its archetypes."""

import dataclasses

import pytest

from repro.baselines import InOrderCore
from repro.functional import run_program
from repro.pipeline import MachineConfig
from repro.workloads import (
    ALL_KERNELS,
    SPECFP,
    SPECINT,
    KernelParams,
    build_kernel,
    build_suite,
    kernel_names,
    trace_by_name,
    trace_kernel,
)
from repro.workloads.archetypes import ARCHETYPES, COLD_BASE
from repro.workloads.builders import DATA_BASE, make_kernel


def test_suite_has_24_kernels_split_12_12():
    assert len(ALL_KERNELS) == 24
    assert len(SPECFP) == 12 and len(SPECINT) == 12
    assert set(SPECFP) | set(SPECINT) == set(ALL_KERNELS)


def test_kernel_names_are_honest():
    assert all(name.endswith("_like") for name in kernel_names())


def test_unknown_kernel_raises():
    with pytest.raises(KeyError):
        build_kernel("quake3_like")


@pytest.mark.parametrize("name", ALL_KERNELS)
def test_every_kernel_assembles_and_traces(name):
    kernel = build_kernel(name)
    assert kernel.archetype in ARCHETYPES
    trace = trace_kernel(kernel, instructions=1500)
    assert len(trace) == 1500  # runs past the budget (never halts early)
    assert trace.num_loads > 0


def test_traces_are_deterministic():
    t1 = trace_by_name("mcf_like", 1000)
    t2 = trace_by_name("mcf_like", 1000)
    assert [d.pc for d in t1] == [d.pc for d in t2]
    assert [d.addr for d in t1] == [d.addr for d in t2]


def test_build_suite_subset():
    kernels = build_suite(["mcf_like", "mesa_like"])
    assert [k.name for k in kernels] == ["mcf_like", "mesa_like"]


def test_pointer_chase_is_dependent():
    """Each chase load's address comes from the previous chase load."""
    trace = trace_by_name("mcf_like", 2000)
    chain_loads = [d for d in trace
                   if d.is_load and d.addr is not None
                   and d.addr >= COLD_BASE and d.inst.imm == 0]
    values = {d.result for d in chain_loads}
    addrs = {d.addr for d in chain_loads}
    # The loaded pointers are the future addresses.
    assert len(values & addrs) > len(chain_loads) // 2


def test_pointer_chase_defeats_spatial_locality():
    trace = trace_by_name("mcf_like", 4000)
    chain = [d.addr for d in trace
             if d.is_load and d.addr >= COLD_BASE and d.inst.imm == 0]
    sequential = sum(1 for a, b in zip(chain, chain[1:]) if abs(b - a) == 64)
    assert sequential < len(chain) * 0.05


def test_streaming_is_strided():
    trace = trace_by_name("art_like", 3000)
    addrs = [d.addr for d in trace
             if d.is_load and d.addr is not None and d.addr < COLD_BASE]
    deltas = {b - a for a, b in zip(addrs, addrs[1:])}
    assert 64 in deltas  # art_like strides by one line


def test_pointer_chase_has_independent_arc_work():
    """mcf_like mixes the dependent chain with independent arc loads —
    the MLP advance execution mines."""
    trace = trace_by_name("mcf_like", 2000)
    arcs = [d for d in trace
            if d.is_load and d.addr is not None and d.addr < COLD_BASE]
    assert len(arcs) > 50


def test_random_access_is_scattered():
    trace = trace_by_name("gap_like", 5000)
    cold = [d.addr for d in trace
            if d.is_load and d.addr is not None and d.addr >= COLD_BASE]
    assert len(cold) > 10
    assert len({a // 64 for a in cold}) > len(cold) * 0.8  # mostly new lines


def test_branchy_kernel_mispredicts():
    cfg = MachineConfig.hpca09()
    core = InOrderCore(trace_by_name("gzip_like", 8000), config=cfg)
    r = core.run()
    assert r.stats.branch_mispredicts > 100  # data-dependent direction


def test_miss_rate_spread_matches_table2_ordering():
    """The suite must reproduce Table 2's qualitative spread: mcf/art
    extreme, mid-tier FP kernels, and a near-zero-miss compute group."""
    cfg = dataclasses.replace(MachineConfig.hpca09(), warm_dcache=True)

    def mpki(name):
        r = InOrderCore(trace_by_name(name, 8000), config=cfg).run()
        return r.stats.misses_per_ki()

    mcf_d, mcf_l2 = mpki("mcf_like")
    art_d, art_l2 = mpki("art_like")
    ammp_d, ammp_l2 = mpki("ammp_like")
    mesa_d, mesa_l2 = mpki("mesa_like")
    vortex_d, vortex_l2 = mpki("vortex_like")

    assert mcf_d > 100 and mcf_l2 > 50       # the memory-bound extreme
    assert art_d > 80                         # streaming extreme
    assert 5 < ammp_d < 60 and ammp_l2 > 0.5  # mid-tier with L2 misses
    assert mesa_d < 8 and mesa_l2 < 0.5       # cache-resident group
    assert vortex_d < 8 and vortex_l2 < 0.5


def test_fp_kernels_use_fp_ops():
    trace = trace_by_name("swim_like", 2000)
    assert any(d.opclass.value.startswith("fp") for d in trace)


def test_int_kernels_avoid_fp():
    trace = trace_by_name("gzip_like", 2000)
    assert not any(d.opclass.value.startswith("fp") for d in trace)


def test_make_kernel_runs_builder():
    params = KernelParams(iterations=4, footprint_bytes=4096)
    kernel = make_kernel("tiny", "pointer_chase",
                         ARCHETYPES["pointer_chase"], params, "test kernel")
    assert kernel.name == "tiny"
    trace = trace_kernel(kernel, instructions=500)
    assert trace.completed  # 4 iterations then halt


def test_hot_region_declared_by_table_kernels():
    assert build_kernel("gap_like").program.hot_regions
    assert build_kernel("gzip_like").program.hot_regions
    assert build_kernel("mcf_like").program.hot_regions == ()
