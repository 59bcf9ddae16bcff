"""Shared machinery for workload kernels.

Every SPEC2000 stand-in is produced by a *kernel archetype* — a
parameterised program generator.  Archetypes take a
:class:`KernelParams` tuning record whose fields control the memory
behaviour the paper's Table 2 characterises (footprint, access pattern,
pointer-chasing depth, compute density, branch noise).

A deterministic :class:`random.Random` seeded per kernel keeps every
trace reproducible run to run.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from ..isa.assembler import Assembler
from ..isa.program import Program

#: Data segment base: far above the code, word aligned.
DATA_BASE = 0x10_0000

#: Cold regions live this far above a kernel's data base.
COLD_OFFSET = 32 << 20

#: Address space one phase of a composed program may own (data + cold
#: region).  Generated multi-phase workloads (:mod:`repro.wgen`) place
#: phase ``i`` at ``DATA_BASE + i * PHASE_REGION_BYTES`` so phases never
#: alias each other's structures.
PHASE_REGION_BYTES = 64 << 20


@dataclass(frozen=True)
class KernelParams:
    """Tuning knobs shared by the kernel archetypes.

    footprint_bytes:
        Size of the primary data structure.  Footprints beyond the 1 MB
        L2 produce L2 misses; beyond 32 KB produce D$ misses.
    iterations:
        Outer-loop trip count (scaled by the harness to hit a dynamic
        instruction budget).
    compute:
        Per-element ALU/FP work (hides or exposes memory latency).
    unpredictable_branches:
        Fraction [0, 1] of iterations executing a data-dependent branch
        the predictor cannot learn.
    use_fp:
        Emit FP compute (SPECfp-like) instead of integer compute.
    seed:
        Seed for the kernel's deterministic layout randomisation.
    """

    footprint_bytes: int = 64 * 1024
    iterations: int = 256
    compute: int = 2
    unpredictable_branches: float = 0.0
    use_fp: bool = False
    #: Access stride for streaming/stencil archetypes.
    stride_bytes: int = 64
    #: Emit store-back traffic (swim/galgel-like kernels).
    stores: bool = False
    #: Hot (cache-resident) working-set size for two-level archetypes.
    hot_bytes: int = 16 * 1024
    #: 1-in-N accesses go to the cold region (power of two; 0 = never).
    cold_period: int = 0
    #: Pointer-chase: fraction of ring nodes living in the cold region.
    cold_fraction: float = 1.0
    #: Pointer-chase: independent strided "arc" loads per node visit
    #: (real mcf walks arc arrays between chain steps — this is the
    #: miss-independent work advance execution mines).
    arc_loads: int = 0
    #: Pointer-chase: arc-array stride in bytes.
    arc_stride: int = 8
    #: Pointer-chase: arc-array size (L2-resident by default).
    arc_bytes: int = 512 * 1024
    #: Pointer-chase: number of independent chains walked round-robin
    #: (Figure 1d's "independent chains of dependent misses").
    chains: int = 1
    #: Streaming: make the cold walk randomly addressed (defeats the
    #: stream buffers, so cold misses are DRAM-class).
    cold_random: bool = False
    #: hash_join: hash-table bucket chain depth (dependent loads/probe).
    chain_depth: int = 2
    #: Base address of this kernel's data segment.  The fixed suite uses
    #: the default; the phase composer gives each phase its own region.
    data_base: int = DATA_BASE
    seed: int = 1


def cold_base(params: KernelParams) -> int:
    """Base of the kernel's cold region (far above its data base)."""
    return params.data_base + COLD_OFFSET


@dataclass
class Kernel:
    """A named, characterised workload program."""

    name: str
    program: Program
    archetype: str
    params: KernelParams
    description: str = ""


def rng_for(params: KernelParams, salt: int = 0) -> random.Random:
    return random.Random(params.seed * 0x9E3779B1 + salt)


def emit_compute(a: Assembler, params: KernelParams, acc, tmp, n=None) -> None:
    """Emit ``n`` (default ``params.compute``) dependent work ops."""
    from ..isa.registers import R

    count = params.compute if n is None else n
    for i in range(count):
        if params.use_fp:
            if i % 2:
                a.fmul(acc, acc, tmp)
            else:
                a.fadd(acc, acc, tmp)
        else:
            if i % 3 == 2:
                a.mul(acc, acc, tmp)
            else:
                a.add(acc, acc, tmp)


def make_kernel(name: str, archetype: str, build, params: KernelParams,
                description: str = "") -> Kernel:
    """Run an archetype builder and wrap the result."""
    assembler = Assembler(name)
    build(assembler, params)
    program = assembler.assemble()
    return Kernel(name=name, program=program, archetype=archetype,
                  params=params, description=description)
