"""Unit tests for workload builder helpers."""

from repro.functional import run_program
from repro.isa import Assembler, R
from repro.workloads.builders import (
    DATA_BASE,
    KernelParams,
    emit_compute,
    make_kernel,
    rng_for,
)
from repro.workloads.archetypes import ARCHETYPES


def test_rng_is_deterministic_per_seed():
    p = KernelParams(seed=7)
    assert rng_for(p).random() == rng_for(p).random()
    assert rng_for(p).random() != rng_for(KernelParams(seed=8)).random()
    assert rng_for(p, salt=1).random() != rng_for(p, salt=2).random()


def test_emit_compute_counts():
    a = Assembler()
    a.li(R.r3, 1)
    a.li(R.r4, 2)
    emit_compute(a, KernelParams(compute=5), R.r3, R.r4)
    a.halt()
    assert len(a.assemble()) == 8  # 2 li + 5 compute + halt


def test_emit_compute_fp_variant():
    a = Assembler()
    emit_compute(a, KernelParams(compute=4, use_fp=True), R.f1, R.f2)
    a.halt()
    ops = {i.op.value for i in a.assemble().instructions}
    assert "fadd" in ops and "fmul" in ops


def test_emit_compute_override_count():
    a = Assembler()
    emit_compute(a, KernelParams(compute=10), R.r3, R.r4, n=2)
    a.halt()
    assert len(a.assemble()) == 3


def test_make_kernel_carries_metadata():
    params = KernelParams(iterations=3, footprint_bytes=4096)
    kernel = make_kernel("k", "pointer_chase", ARCHETYPES["pointer_chase"],
                         params, "desc")
    assert kernel.name == "k"
    assert kernel.archetype == "pointer_chase"
    assert kernel.params is params
    assert kernel.description == "desc"
    trace = run_program(kernel.program, max_instructions=1000)
    assert trace.completed


def test_data_base_clear_of_code():
    from repro.isa.program import CODE_BASE

    assert DATA_BASE > CODE_BASE + (1 << 16)
