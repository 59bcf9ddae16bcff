"""The benchmark's four workloads and the inputs each builds from a seed.

A workload is a grid of *cells*: one machine model simulating one
kernel's dynamic trace.  Three workloads time their cells by driving
cores directly through ``make_core(model, trace, config).run()``, so
their simulation bypasses ``repro.exec``; ``gen-campaign`` computes its
cells through ``run_jobs`` into a ``ResultStore``, in one process (a
process pool on a small shared host times the scheduler, not the code).
Every workload then replays its finished grid from a store.

The seed never changes what a workload *is*, only its random layout:
seed ``S`` rebuilds every kernel (and every phase of a generated
workload) with ``params.seed + S``, keeping the archetype and every
other knob.  Seed 0 is the paper suite as-is, so a claim checked on
seed 0 can be re-checked on a seed the change was not written against.

Nothing here imports ``repro`` at module level: the parent process of a
benchmark run reads the workload table without loading the simulator.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json

MODELS = ("in-order", "runahead", "multipass", "sltp", "icfp")

#: Generator seed of the ``gen-campaign`` suite (``generate_suite``).
GEN_SEED = 2009


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    why: str
    instructions: int
    #: Named-suite kernels; ``None`` is the whole 24-kernel suite.
    kernels: tuple[str, ...] | None = None
    #: Generated workload count (``gen-campaign`` only).
    generated: int = 0
    #: Warm replays of the finished grid from a ``ResultStore``.
    replays: int = 20


WORKLOADS = {w.name: w for w in (
    Workload(
        "fig5-grid", instructions=6000,
        why="the paper's Figure 5 campaign, 24 kernels x 5 models: pays "
            "each layer in the proportion a reproduction does"),
    Workload(
        "miss-bound", instructions=12000,
        kernels=("mcf_like", "vpr_like", "ammp_like", "art_like",
                 "swim_like"),
        why="in-order CPI 5-57: the leap engine, horizon scan, miss path, "
            "MSHRs and iCFP slice/store buffers dominate"),
    Workload(
        "hit-bound", instructions=30000,
        kernels=("gcc_like", "vortex_like", "gzip_like", "perlbmk_like",
                 "crafty_like", "mesa_like", "bzip2_like", "eon_like"),
        why="in-order CPI 1.4-1.8: the L1-hit path, fetch, issue and "
            "predictor dominate; the control for miss-path changes"),
    Workload(
        "gen-campaign", instructions=6000, generated=16, replays=40,
        why="16 generated multi-phase workloads x 5 models through "
            "run_jobs, job fingerprints and a fresh result store"),
)}


def reseed(params, seed: int):
    """``params`` with its layout seed shifted by ``seed``."""
    return dataclasses.replace(params, seed=params.seed + seed)


def generated_specs(workload: Workload, seed: int) -> list:
    """The ``gen-campaign`` specs, every phase re-laid-out by ``seed``."""
    from repro.wgen import generate_suite

    specs = generate_suite(workload.generated, GEN_SEED)
    return [dataclasses.replace(spec, phases=tuple(
        dataclasses.replace(phase, params=reseed(phase.params, seed))
        for phase in spec.phases)) for spec in specs]


def kernel_names(workload: Workload) -> tuple[str, ...]:
    if workload.kernels is not None:
        return workload.kernels
    from repro.workloads import ALL_KERNELS

    return tuple(ALL_KERNELS)


def named_trace(name: str, seed: int, instructions: int):
    """Assemble suite kernel ``name`` re-laid-out by ``seed`` and trace it."""
    from repro.workloads.archetypes import ARCHETYPES
    from repro.workloads.builders import make_kernel
    from repro.workloads.suite import build_kernel, trace_kernel

    base = build_kernel(name)
    kernel = make_kernel(name, base.archetype, ARCHETYPES[base.archetype],
                         reseed(base.params, seed), base.description)
    return trace_kernel(kernel, instructions=instructions)


def config_for(instructions: int):
    from repro.harness.experiment import ExperimentConfig

    return ExperimentConfig(instructions=instructions)


def cell_key(kernel: str, model: str) -> str:
    return f"{kernel}/{model}"


def digest(result) -> str:
    """sha256 of a result's exact store payload (every recorded stat)."""
    from repro.exec.store import result_to_payload

    text = json.dumps(result_to_payload(result), sort_keys=True,
                      separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def check(result, trace) -> str | None:
    """A problem with ``result`` visible without a reference, or None."""
    if result.instructions != len(trace):
        return (f"committed {result.instructions} of {len(trace)} "
                "traced instructions")
    if result.cycles <= 0:
        return f"non-positive cycle count {result.cycles}"
    return None
