"""Experiment runner: one place that knows how to build and run every
machine model on every workload.

Model configurations follow Section 5.1: Runahead and SLTP advance
under L2 misses only, Multipass also under primary data-cache misses,
and iCFP under everything.  The instruction budget per kernel (the
stand-in for the paper's sampled windows) is controlled by
``REPRO_INSTRUCTIONS`` (default 6 000); ``REPRO_WORKLOADS`` narrows the
suite (comma-separated kernel names) for quick runs.

Campaigns (``run_workload``/``run_suite``) execute through the
:mod:`repro.exec` engine: the model x workload grid becomes a batch of
:class:`~repro.exec.job.SimJob` specs that the engine memoizes by
config fingerprint and fans out across ``REPRO_JOBS`` processes.
"""

from __future__ import annotations

import dataclasses
import math
import os
from dataclasses import dataclass, field

from ..baselines import InOrderCore, MultipassCore, RunaheadCore, SLTPCore
from ..core.icfp import ICFPCore, ICFPFeatures
from ..engine.result import SimResult
from ..exec import SimJob, run_jobs
from ..functional.trace import Trace
from ..pipeline.config import MachineConfig
from ..wgen.spec import workload_name
from ..workloads import ALL_KERNELS, SPECFP, SPECINT

#: Paper model names in presentation order (Figure 5).
MODELS = ("in-order", "runahead", "multipass", "sltp", "icfp")


def default_instructions() -> int:
    """Per-kernel dynamic instruction budget: ``REPRO_INSTRUCTIONS``
    (a positive integer) if set, else 6 000."""
    env = os.environ.get("REPRO_INSTRUCTIONS", "6000")
    try:
        budget = int(env)
    except ValueError:
        budget = 0
    if budget < 1:
        raise ValueError(
            f"REPRO_INSTRUCTIONS must be a positive integer, got {env!r}")
    return budget


def selected_workloads() -> list:
    """The workload list, optionally narrowed by ``REPRO_WORKLOADS``.

    The environment variable takes the same comma-separated references
    as the CLI's ``-w``: kernel names, ``@specfile.json``, and
    ``gen:N[:SEED]`` generated suites.
    """
    env = os.environ.get("REPRO_WORKLOADS")
    if not env:
        return list(ALL_KERNELS)
    from ..wgen.registry import resolve_workloads

    refs = [n.strip() for n in env.split(",") if n.strip()]
    try:
        return resolve_workloads(refs)
    except (KeyError, ValueError, OSError) as exc:
        raise ValueError(f"bad REPRO_WORKLOADS reference: {exc}") from None


@dataclass(frozen=True)
class ExperimentConfig:
    """Knobs shared by all experiments."""

    instructions: int = field(default_factory=default_instructions)
    l2_hit_latency: int = 20
    stream_buffers: int = 8
    warm: bool = True
    icfp_features: ICFPFeatures = field(default_factory=ICFPFeatures)
    runahead_advance_on: str = "l2"
    multipass_advance_on: str = "l2_d1"
    sltp_advance_on: str = "l2"

    def machine_config(self) -> MachineConfig:
        cfg = MachineConfig.hpca09(l2_hit_latency=self.l2_hit_latency,
                                   stream_buffers=self.stream_buffers)
        return dataclasses.replace(cfg, warm_dcache=self.warm)


def make_core(model: str, trace: Trace, config: ExperimentConfig):
    """Instantiate a machine model on ``trace``."""
    machine = config.machine_config()
    if model == "in-order":
        return InOrderCore(trace, config=machine)
    if model == "runahead":
        return RunaheadCore(trace, config=machine,
                            advance_on=config.runahead_advance_on)
    if model == "multipass":
        return MultipassCore(trace, config=machine,
                             advance_on=config.multipass_advance_on)
    if model == "sltp":
        return SLTPCore(trace, config=machine,
                        advance_on=config.sltp_advance_on)
    if model == "icfp":
        return ICFPCore(trace, config=machine, features=config.icfp_features)
    raise ValueError(f"unknown model {model!r}; choose from {MODELS}")


def run_model(model: str, trace: Trace, config: ExperimentConfig) -> SimResult:
    return make_core(model, trace, config).run()


def suite_jobs(models=MODELS, workloads=None,
               config: ExperimentConfig | None = None) -> list[SimJob]:
    """The models x workloads grid as engine job specs."""
    config = config if config is not None else ExperimentConfig()
    workloads = workloads if workloads is not None else selected_workloads()
    return [SimJob(model, workload, config)
            for workload in workloads for model in models]


def run_workload(workload, models=MODELS,
                 config: ExperimentConfig | None = None,
                 jobs: int | None = None, store=None,
                 report=None) -> dict[str, SimResult]:
    """Run several models over one workload (one shared, cached trace)."""
    results = run_suite(models, (workload,), config, jobs=jobs, store=store,
                        report=report)
    return results[workload_name(workload)]


def run_suite(models=MODELS, workloads=None,
              config: ExperimentConfig | None = None,
              jobs: int | None = None,
              store=None, report=None,
              strict: bool = True) -> dict[str, dict[str, SimResult]]:
    """Run ``models`` x ``workloads``; returns results[workload][model].

    ``workloads`` mixes named-suite kernels and generated
    :class:`~repro.wgen.spec.WorkloadSpec`s freely; the result table is
    keyed by :func:`~repro.wgen.spec.workload_name` in both cases.  The
    grid goes through the campaign engine: previously-computed
    (model, workload, config) cells come from the result memo or the
    on-disk store (``store=`` as in :func:`repro.exec.run_jobs`:
    ``None`` = environment default, ``False`` = off, or an explicit
    :class:`~repro.exec.ResultStore`), the rest fan out over ``jobs``
    worker processes (default ``REPRO_JOBS``, then ``os.cpu_count()``;
    1 = sequential in-process).

    ``report`` (a :class:`~repro.exec.CampaignReport`) accumulates
    execution-health counters; ``strict=False`` keeps going past
    permanently failed jobs — a workload missing *any* model's result
    is dropped from the table (its failures stay in the report), so
    every surviving row is complete and comparable.
    """
    specs = suite_jobs(models, workloads, config)
    results = run_jobs(specs, workers=jobs, store=store,
                       report=report, strict=strict)
    table: dict[str, dict[str, SimResult]] = {}
    for spec, result in zip(specs, results):
        if result is not None:
            table.setdefault(
                workload_name(spec.workload), {})[spec.model] = result
    if not strict:
        wanted = set(models)
        table = {w: runs for w, runs in table.items()
                 if wanted.issubset(runs)}
    return table


# ----------------------------------------------------------------------
# aggregation
# ----------------------------------------------------------------------
def geomean(values) -> float:
    values = list(values)
    if not values:
        return 0.0
    if any(v <= 0 for v in values):
        raise ValueError("geomean requires positive values")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def speedups_over_inorder(results: dict[str, dict[str, SimResult]],
                          model: str) -> dict[str, float]:
    """Per-workload speedup of ``model`` over in-order (1.0 = equal)."""
    return {
        workload: runs[model].speedup_over(runs["in-order"])
        for workload, runs in results.items()
    }


def group_geomeans(per_workload: dict[str, float]) -> dict[str, float]:
    """Geometric means over SPECfp, SPECint, and all (paper convention)."""
    def over(names):
        present = [per_workload[n] for n in names if n in per_workload]
        return geomean(present) if present else float("nan")

    return {
        "SPECfp": over(SPECFP),
        "SPECint": over(SPECINT),
        "SPEC": over(list(per_workload)),
    }
