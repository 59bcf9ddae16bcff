"""Campaign throughput: the Figure 5 grid, engine speed vs cache power.

Six measurements, separated so the trend record can tell them apart:

* **engine speed** — jobs=1 (and, on multi-core hosts, jobs=N) over the
  grid with every memo tier off (``memo=False``): pure simulation
  throughput.  On a single-core host the pooled pass is *skipped* and
  flagged — with one CPU a process pool only adds fork/IPC overhead, so
  a "parallel" number there is an anti-measurement (the v5 records
  showed jobs=N *slower* than jobs=1 for exactly this reason).  Pass
  ``--jobs`` to force it.
* **store effectiveness** — a cold pass (empty disk store, results
  flushed to it) vs a warm pass (RAM memo cleared, every cell loaded
  back from the store): what an incremental re-run of a completed
  campaign actually costs.
* **generated-suite throughput** — a seeded ``repro.wgen`` suite
  through the same engine: spec -> program materialisation cost and
  simulation rate over generated workloads.
* **phase-attribution overhead** — the suite's multi-phase specs with
  per-phase attribution on vs off over identical traces.
* **fault-tolerance overhead** — the same pooled grid with faults off
  vs ~10% deterministic worker death (pool teardown, resurrection,
  retries).
* **obs overhead** — the sequential grid with ``REPRO_TRACE`` unset vs
  set: what span tracing + metrics actually cost when on, and a pin
  that the off side stays at ~zero (a single module-level check),
  byte-identity checked.

Methodology: every on-vs-off comparison (engine jobs=1 vs jobs=N,
attribution on vs off, faults clean vs chaos, trace off vs on) takes
the **min of three timed reps per side, interleaved A/B/A/B**, so
machine drift hits both sides alike — on shared hosts wall clocks drift
+-10% over tens of seconds, which is enough to flip the sign of a
single-shot comparison.  Residual sign surprises that survive min-of-3
are real effects and get flagged, not averaged away: on a 1-CPU host
the chaos pass's degradation to sequential execution genuinely beats
the worker pool, so its "overhead" reads negative with an attached
``single_core_note``.

Usable three ways:

* ``python benchmarks/bench_throughput.py [--jobs N] [-n INSTR] [-w a,b]``
  runs every phase and prints one machine-readable JSON object.
  ``--store-dir`` persists the store between invocations (second runs
  are store-hot); ``--store-only`` skips everything but the store phase.
* ``--output BENCH_throughput.json`` additionally writes the compact
  trend record (schema v9: commit, jobs, grid, sims/sec, store
  cold/warm, generated-suite rates, attribution delta, fault-recovery
  delta, obs-overhead delta, env) — ``make bench`` uses this.  When the
  output file already holds a previous record, the new one is compared
  against it first and any >20% throughput regression is shouted to
  stderr (the checked-in ``BENCH_throughput.json`` is the baseline).
* under pytest it asserts every byte-identity verdict — and that each
  comparative phase really used the interleaved min-of-3 methodology —
  on a reduced grid.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.exec import (  # noqa: E402
    RESULT_CACHE,
    CampaignReport,
    FaultPlan,
    ResultStore,
    default_jobs,
    injected_faults,
    run_jobs,
)
from repro.exec.store import result_to_payload  # noqa: E402
from repro.harness.experiment import (  # noqa: E402
    MODELS,
    ExperimentConfig,
    selected_workloads,
    suite_jobs,
)
from repro.wgen import resolve_workloads, workload_name  # noqa: E402

#: Timed reps per side of every comparative phase (min-of-N, interleaved).
COMPARE_REPS = 3
#: Stamped into each comparative phase so consumers (and the bench's own
#: pytest entry) can assert the documented methodology was actually used.
METHODOLOGY = f"min-of-{COMPARE_REPS}-interleaved"


def _timed(fn):
    start = time.perf_counter()
    out = fn()
    return time.perf_counter() - start, out


def _payloads(results):
    return [result_to_payload(r) for r in results]


def run_engine_phase(config: ExperimentConfig, workloads,
                     parallel_jobs: int | None) -> dict:
    """jobs=1 (and jobs=N unless skipped) over the models x workloads grid.

    Traces are generated (and cached) before any clock starts, so every
    pass times pure simulation; an untimed jobs=1 prime pass then pays
    bytecode/warm-snapshot costs once, outside the measurement.  The two
    sides are interleaved rep by rep and each reports its min wall.
    """
    from repro.exec import TRACE_CACHE

    specs = suite_jobs(MODELS, workloads, config)
    for workload in workloads:
        TRACE_CACHE.get(workload, config.instructions)

    def one_pass(jobs):
        return _timed(lambda: run_jobs(specs, workers=jobs, memo=False))

    one_pass(1)  # prime: bytecode + warm snapshots, inherited by forks
    seq_walls, par_walls = [], []
    seq_results = par_results = None
    for _ in range(COMPARE_REPS):
        wall, seq_results = one_pass(1)
        seq_walls.append(wall)
        if parallel_jobs is not None:
            wall, par_results = one_pass(parallel_jobs)
            par_walls.append(wall)

    def side(jobs, walls, results):
        wall = min(walls)
        simulated = sum(r.instructions for r in results)
        return {
            "jobs": jobs,
            "reps": len(walls),
            "simulations": len(specs),
            "wall_clock_s": round(wall, 3),
            "simulated_instructions": simulated,
            "sims_per_sec": round(len(specs) / wall, 2),
            "instructions_per_s": round(simulated / wall, 1),
        }

    phase = {"methodology": METHODOLOGY,
             "sequential": side(1, seq_walls, seq_results)}
    if parallel_jobs is not None:
        phase["parallel"] = side(parallel_jobs, par_walls, par_results)
        phase["speedup"] = round(min(seq_walls) / min(par_walls), 2)
        phase["results_identical"] = (_payloads(seq_results)
                                      == _payloads(par_results))
    return phase


def run_store_phase(config: ExperimentConfig, workloads,
                    store_dir: str | None = None) -> dict:
    """Cold-vs-warm over the grid through the disk store.

    Cold: RAM memo cleared, the store consulted and then flushed — for
    an empty store this is full simulation plus record writes.  Warm:
    RAM memo cleared again, same store — every cell must now load from
    disk.  Both passes report the store's hit/miss/write counters, so a
    pre-populated persistent store (where the "cold" pass is already
    hot) reads honestly.
    """
    from repro.exec import TRACE_CACHE

    ephemeral = store_dir is None
    if ephemeral:
        store_dir = tempfile.mkdtemp(prefix="repro-bench-store-")
    store = ResultStore(store_dir)
    specs = suite_jobs(MODELS, workloads, config)
    for workload in workloads:
        TRACE_CACHE.get(workload, config.instructions)

    def timed_pass() -> dict:
        RESULT_CACHE.clear()
        counters = {name: getattr(store, name)
                    for name in ("hits", "misses", "writes", "corrupt")}
        start = time.perf_counter()
        results = run_jobs(specs, workers=1, store=store)
        wall = time.perf_counter() - start
        return {
            "wall_clock_s": round(wall, 4),
            "store_hits": store.hits - counters["hits"],
            "store_misses": store.misses - counters["misses"],
            "store_writes": store.writes - counters["writes"],
            "store_corrupt": store.corrupt - counters["corrupt"],
            "memo_entries_after": len(RESULT_CACHE),
            "payloads": _payloads(results),
        }

    cold = timed_pass()
    # Cold is inherently single-shot (the store fills on the first
    # pass), but warm can repeat: its wall is tens of milliseconds, so
    # one OS I/O hiccup can inflate a single shot several-fold and trip
    # the regression guard.  Min-of-3, same counters every rep.
    warm_reps = [timed_pass() for _ in range(COMPARE_REPS)]
    warm = min(warm_reps, key=lambda rep: rep["wall_clock_s"])
    warm["reps"] = len(warm_reps)
    identical = all(cold["payloads"] == rep["payloads"]
                    for rep in warm_reps)
    for side in (cold, *warm_reps):
        del side["payloads"]  # bulky; the equality verdict is what matters
    phase = {
        "simulations": len(specs),
        "store_dir_persistent": not ephemeral,
        "cold": cold,
        "warm": warm,
        "warm_speedup": round(cold["wall_clock_s"]
                              / max(warm["wall_clock_s"], 1e-9), 2),
        "warm_all_hits": warm["store_hits"] == len(specs),
        "results_identical": identical,
    }
    if ephemeral:
        shutil.rmtree(store_dir, ignore_errors=True)
    return phase


#: Generated-suite phase defaults: a fixed seed so the benchmarked
#: workloads are the same specs run to run (the point of a trend line).
GENERATED_COUNT = 6
GENERATED_SEED = 2009


def run_phase_attribution_phase(config: ExperimentConfig,
                                count: int = GENERATED_COUNT,
                                seed: int = GENERATED_SEED) -> dict:
    """Attribution-on vs -off sims/sec over multi-phase workloads.

    Phase attribution runs live (per-commit bucketing) only for
    multi-phase composed programs, so this phase times exactly those:
    the seeded suite's multi-phase specs, all five models, once with
    their real phase regions and once over the identical dynamic trace
    with the regions stripped.  Passes are primed (warm snapshots,
    bytecode) and follow the interleaved min-of-3 methodology.  The
    recorded overhead percentage is the trend line that keeps
    attribution's hot-path cost visible across PRs.
    """
    from repro.exec import TRACE_CACHE
    from repro.harness.experiment import make_core
    from repro.wgen import generate_suite

    specs = [s for s in generate_suite(count, seed) if len(s.phases) > 1]
    traces_on = [TRACE_CACHE.get(s, config.instructions) for s in specs]
    traces_off = [t.with_phase_regions(()) for t in traces_on]

    def timed_pass(traces) -> float:
        start = time.perf_counter()
        for trace in traces:
            for model in MODELS:
                make_core(model, trace, config).run()
        return time.perf_counter() - start

    timed_pass(traces_on)   # prime both sides before the clock matters
    timed_pass(traces_off)
    walls_on, walls_off = [], []
    for _ in range(COMPARE_REPS):
        walls_on.append(timed_pass(traces_on))
        walls_off.append(timed_pass(traces_off))
    on_wall, off_wall = min(walls_on), min(walls_off)
    sims = len(specs) * len(MODELS)
    return {
        "methodology": METHODOLOGY,
        "workloads": [spec.name for spec in specs],
        "phases_per_workload": [len(spec.phases) for spec in specs],
        "simulations": sims,
        "reps": COMPARE_REPS,
        "on_wall_s": round(on_wall, 4),
        "off_wall_s": round(off_wall, 4),
        "on_sims_per_sec": round(sims / on_wall, 2),
        "off_sims_per_sec": round(sims / off_wall, 2),
        "overhead_pct": round((on_wall - off_wall) / off_wall * 100.0, 2),
    }


def run_generated_phase(config: ExperimentConfig,
                        count: int = GENERATED_COUNT,
                        seed: int = GENERATED_SEED) -> dict:
    """Seeded wgen suite through the engine: build cost + sim rate.

    Build wall covers spec sampling, phase composition, assembly, and
    functional tracing (the work the trace cache amortises); the timed
    simulation pass then runs the models x generated-workloads grid
    memo-off, exactly like the engine-speed phases.
    """
    from repro.exec import TRACE_CACHE
    from repro.wgen import generate_suite

    specs = generate_suite(count, seed)
    build_start = time.perf_counter()
    for spec in specs:
        TRACE_CACHE.get(spec, config.instructions)
    build_wall = time.perf_counter() - build_start

    jobs = suite_jobs(MODELS, specs, config)
    start = time.perf_counter()
    results = run_jobs(jobs, workers=1, memo=False, store=False)
    wall = time.perf_counter() - start
    simulated = sum(r.instructions for r in results)
    return {
        "count": count,
        "seed": seed,
        "workloads": [spec.name for spec in specs],
        "simulations": len(jobs),
        "build_wall_s": round(build_wall, 3),
        "wall_clock_s": round(wall, 3),
        "simulated_instructions": simulated,
        "sims_per_sec": round(len(jobs) / wall, 2),
        "instructions_per_s": round(simulated / wall, 1),
    }


#: Fault-tolerance phase defaults: the target worker-death rate and the
#: pooled worker count (2 keeps the phase cheap and the recovery path —
#: one death breaks the whole pool — maximally visible).
FAULT_DEATH_RATE = 0.1
FAULT_JOBS = 2


def _fault_plan(fingerprints, rate: float = FAULT_DEATH_RATE) -> FaultPlan:
    """The first seed whose predicted first-attempt deaths hit ``rate``.

    Searched deterministically over the actual campaign fingerprints,
    so the phase always injects (a hardcoded seed could silently decay
    to a fault-free run when a config change moves the fingerprints).
    """
    need = max(1, round(rate * len(fingerprints)))
    for seed in range(500):
        plan = FaultPlan(seed=seed, worker_death=rate)
        if sum(plan.would_fail("worker_death", fp)
               for fp in fingerprints) >= need:
            return plan
    raise RuntimeError("no qualifying fault seed found")


def run_fault_tolerance_phase(config: ExperimentConfig, workloads,
                              jobs: int = FAULT_JOBS) -> dict:
    """Faults-off vs ~10% worker death over a pooled grid.

    Both passes run the same grid memo-off at the same worker count;
    the chaos pass additionally absorbs deterministic worker deaths
    (pool teardown + resurrection + retries).  Clean and chaos walls
    follow the interleaved min-of-3 methodology — pool spin-up costs
    are seconds-scale and drift with the host, so a single-shot
    comparison can (and in the v5 record did) report *negative*
    recovery overhead.  The recorded percentage is the price of
    recovery, and ``results_identical`` pins the contract that recovery
    never changes a result.
    """
    from repro.exec import TRACE_CACHE

    specs = suite_jobs(MODELS, workloads, config)
    for workload in workloads:
        TRACE_CACHE.get(workload, config.instructions)
    plan = _fault_plan([s.fingerprint for s in specs])
    predicted = sum(plan.would_fail("worker_death", s.fingerprint)
                    for s in specs)

    clean_walls, chaos_walls = [], []
    clean = chaos = None
    chaos_reports = []
    for _ in range(COMPARE_REPS):
        start = time.perf_counter()
        clean = run_jobs(specs, workers=jobs, memo=False, store=False,
                         report=CampaignReport())
        clean_walls.append(time.perf_counter() - start)
        chaos_report = CampaignReport()
        start = time.perf_counter()
        with injected_faults(plan):
            chaos = run_jobs(specs, workers=jobs, memo=False, store=False,
                             report=chaos_report)
        chaos_walls.append(time.perf_counter() - start)
        chaos_reports.append(chaos_report)

    clean_wall, chaos_wall = min(clean_walls), min(chaos_walls)
    identical = _payloads(clean) == _payloads(chaos)
    sims = len(specs)
    # The plan is a pure function of (seed, fingerprint), so every rep
    # injects identically; report the first rep's incident counters.
    first = chaos_reports[0]
    single_core_note = None
    if (os.cpu_count() or 1) <= 1 and first.degradations:
        # Not noise: after enough pool deaths the engine degrades to
        # sequential in-process execution, which *outruns* a worker
        # pool on one CPU — so recovery can be a net win here and the
        # overhead percentage reads negative.  Flagged so the trend
        # record stays interpretable.
        single_core_note = (
            "chaos pass degraded to sequential execution, which beats "
            f"a {jobs}-worker pool on a 1-CPU host; negative overhead "
            "is expected, not an anomaly")
    return {
        "methodology": METHODOLOGY,
        "simulations": sims,
        "jobs": jobs,
        "reps": COMPARE_REPS,
        "death_rate": plan.worker_death,
        "seed": plan.seed,
        "predicted_first_attempt_deaths": predicted,
        "clean_wall_s": round(clean_wall, 4),
        "chaos_wall_s": round(chaos_wall, 4),
        "clean_sims_per_sec": round(sims / clean_wall, 2),
        "chaos_sims_per_sec": round(sims / chaos_wall, 2),
        "recovery_overhead_pct": round(
            (chaos_wall - clean_wall) / clean_wall * 100.0, 2),
        "retries": first.retries,
        "pool_breaks": first.pool_breaks,
        "degradations": first.degradations,
        "single_core_note": single_core_note,
        "results_identical": identical,
    }


def run_obs_overhead_phase(config: ExperimentConfig, workloads) -> dict:
    """Trace-off vs trace-on sims/sec over the sequential grid.

    The telemetry subsystem's zero-overhead contract, measured: the off
    side is the ordinary sequential grid (``REPRO_TRACE`` unset — hot
    paths pay one module-global check), the on side runs the identical
    grid with span tracing, engine leap-audit probes, and metrics
    mirroring live, logs flushed per record to a throwaway obs dir.
    Byte-identity between the sides is the observation-only law; the
    overhead percentage is the trend line that keeps tracing honest.
    """
    from repro.exec import TRACE_CACHE
    from repro.obs import trace as obs_trace
    from repro.obs.export import merge_logs

    jobs = suite_jobs(MODELS, workloads, config)
    for workload in workloads:
        TRACE_CACHE.get(workload, config.instructions)
    obs_root = tempfile.mkdtemp(prefix="repro-bench-obs-")
    prior_trace = os.environ.pop("REPRO_TRACE", None)

    def grid():
        return run_jobs(jobs, workers=1, memo=False, store=False)

    def pass_off():
        os.environ.pop("REPRO_TRACE", None)
        return grid()

    def pass_on():
        os.environ["REPRO_TRACE"] = obs_root
        return grid()

    try:
        off_results = pass_off()  # prime both sides before timing
        on_results = pass_on()
        walls_off, walls_on = [], []
        for _ in range(COMPARE_REPS):
            wall, _results = _timed(pass_off)
            walls_off.append(wall)
            wall, _results = _timed(pass_on)
            walls_on.append(wall)
        span_records = sum(1 for r in merge_logs(obs_root)
                           if r.get("ph") == "X")
    finally:
        os.environ.pop("REPRO_TRACE", None)
        obs_trace.deactivate()
        if prior_trace is not None:
            os.environ["REPRO_TRACE"] = prior_trace
        shutil.rmtree(obs_root, ignore_errors=True)
    off_wall, on_wall = min(walls_off), min(walls_on)
    sims = len(jobs)
    return {
        "methodology": METHODOLOGY,
        "simulations": sims,
        "reps": COMPARE_REPS,
        "off_wall_s": round(off_wall, 4),
        "on_wall_s": round(on_wall, 4),
        "off_sims_per_sec": round(sims / off_wall, 2),
        "on_sims_per_sec": round(sims / on_wall, 2),
        "overhead_pct": round((on_wall - off_wall) / off_wall * 100.0, 2),
        "span_records": span_records,
        "results_identical": (_payloads(off_results)
                              == _payloads(on_results)),
    }


def campaign_throughput(parallel_jobs: int | None = None,
                        config: ExperimentConfig | None = None,
                        workloads=None, store_dir: str | None = None,
                        store_only: bool = False) -> dict:
    """Every phase, with per-phase and overall byte-identity verdicts.

    The jobs=N engine pass is skipped (and flagged) when the host has a
    single CPU and no worker count was forced: a process pool cannot
    speed anything up there, so recording its wall as "parallel
    throughput" would poison the trend line.
    """
    config = config if config is not None else ExperimentConfig()
    workloads = workloads if workloads is not None else selected_workloads()
    cpu_count = os.cpu_count() or 1
    forced = parallel_jobs is not None
    resolved_parallel = parallel_jobs if forced else max(2, default_jobs())
    skip_parallel = cpu_count <= 1 and not forced
    # The environment must not leak into the measurements: the engine
    # phases are pure simulation (no memo tiers) and the store phase
    # uses its own explicit store.
    report = {
        "benchmark": "figure5_campaign_throughput",
        "instructions_per_kernel": config.instructions,
        # Names, not raw refs: generated workloads (WorkloadSpec)
        # are not JSON-serialisable and the record only needs ids.
        "workloads": [workload_name(w) for w in workloads],
        "models": list(MODELS),
        "cpu_count": cpu_count,
        "repro_jobs_env": os.environ.get("REPRO_JOBS"),
    }
    if not store_only:
        engine = run_engine_phase(
            config, workloads,
            None if skip_parallel else resolved_parallel)
        report["engine_methodology"] = engine["methodology"]
        report["sequential"] = engine["sequential"]
        if skip_parallel:
            report["parallel"] = None
            report["parallel_skipped"] = (
                f"cpu_count={cpu_count}: a process pool only adds "
                "fork/IPC overhead on a single-core host; pass "
                "--jobs N to force the phase")
        else:
            report["parallel"] = engine["parallel"]
            report["speedup"] = engine["speedup"]
            report["parallel_results_identical"] = \
                engine["results_identical"]
        report["generated"] = run_generated_phase(config)
        report["phase_attribution"] = run_phase_attribution_phase(config)
        report["fault_tolerance"] = run_fault_tolerance_phase(
            config, workloads)
        report["obs"] = run_obs_overhead_phase(config, workloads)
    report["store"] = run_store_phase(config, workloads, store_dir)
    verdicts = [report["store"]["results_identical"]]
    if not store_only:
        verdicts.append(report["fault_tolerance"]["results_identical"])
        verdicts.append(report["obs"]["results_identical"])
        if report["parallel"] is not None:
            verdicts.append(report["parallel_results_identical"])
    report["results_identical"] = all(verdicts)
    return report


def test_campaign_throughput(once):
    """Benchmark-suite entry: reduced grid, full verdict assertions."""
    cfg = ExperimentConfig(instructions=min(ExperimentConfig().instructions,
                                            1500))
    workloads = selected_workloads()[:6]
    report = once(lambda: campaign_throughput(config=cfg,
                                              workloads=workloads))
    print("\n" + json.dumps(report, indent=2))
    assert report["results_identical"], "some phase's A/B runs diverged"
    assert report["engine_methodology"] == METHODOLOGY
    sequential = report["sequential"]
    assert sequential["reps"] == COMPARE_REPS
    assert sequential["sims_per_sec"] > 0
    if report["parallel"] is None:
        # Single-core host: the skip must be flagged, not silent.
        assert "cpu_count=1" in report["parallel_skipped"]
    else:
        assert report["parallel_results_identical"], \
            "parallel run diverged from sequential"
        assert report["parallel"]["simulated_instructions"] == \
            sequential["simulated_instructions"]
    store = report["store"]
    assert store["results_identical"], "store-warm pass diverged from cold"
    assert store["warm_all_hits"], "warm pass missed the disk store"
    assert store["warm"]["store_writes"] == 0
    generated = report["generated"]
    assert generated["simulations"] == generated["count"] * len(MODELS)
    assert generated["sims_per_sec"] > 0
    assert generated["simulated_instructions"] > 0
    attribution = report["phase_attribution"]
    assert attribution["simulations"] > 0, "no multi-phase specs sampled"
    assert attribution["methodology"] == METHODOLOGY
    assert attribution["reps"] == COMPARE_REPS
    assert attribution["on_sims_per_sec"] > 0
    assert attribution["off_sims_per_sec"] > 0
    faults = report["fault_tolerance"]
    assert faults["results_identical"], "chaos recovery changed a result"
    assert faults["methodology"] == METHODOLOGY
    assert faults["reps"] == COMPARE_REPS
    assert faults["predicted_first_attempt_deaths"] >= 1
    assert faults["pool_breaks"] >= 1, "no worker death actually landed"
    assert faults["chaos_sims_per_sec"] > 0
    assert "single_core_note" in faults  # negative overhead stays flagged
    obs = report["obs"]
    assert obs["results_identical"], "tracing changed a result"
    assert obs["methodology"] == METHODOLOGY
    assert obs["reps"] == COMPARE_REPS
    assert obs["on_sims_per_sec"] > 0
    assert obs["off_sims_per_sec"] > 0
    assert obs["span_records"] > 0, "the traced side recorded nothing"


def test_regression_guard():
    """The guard trips on >20% drops, stays quiet within noise, and
    tolerates old-schema baselines missing a metric."""
    import io

    previous = {"commit": "abc1234",
                "sims_per_sec": {"jobs1": 10.0},
                "generated": {"sims_per_sec": 8.0}}
    quiet = io.StringIO()
    fresh_ok = {"sims_per_sec": {"jobs1": 9.0},
                "generated": {"sims_per_sec": 7.5}}
    assert warn_on_regression(previous, fresh_ok, stream=quiet) == []
    assert quiet.getvalue() == ""
    loud = io.StringIO()
    fresh_bad = {"sims_per_sec": {"jobs1": 5.0}}  # generated absent: skip
    warnings = warn_on_regression(previous, fresh_bad, stream=loud)
    assert len(warnings) == 1
    assert "sims_per_sec.jobs1" in warnings[0]
    assert "abc1234" in warnings[0]
    assert "BENCH REGRESSION" in loud.getvalue()


def git_commit() -> str:
    """Short commit id of the benchmarked tree ("unknown" outside git)."""
    try:
        return subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=10,
            cwd=os.path.dirname(os.path.abspath(__file__)),
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def bench_record(report: dict) -> dict:
    """The compact machine-readable trend record for BENCH_throughput.json.

    Schema v9 (over v8: one block fewer — the process pool, timed as
    ``sims_per_sec.jobsN``, is the only parallel path left to record).
    Enough for a dashboard to plot every trajectory across PRs and to
    tell an engine regression from a cache, generator, attribution,
    recovery-path, or telemetry regression, without re-parsing the full
    report.
    """
    sequential = report["sequential"]
    parallel = report["parallel"]
    store = report["store"]
    generated = report["generated"]
    attribution = report["phase_attribution"]
    faults = report["fault_tolerance"]
    obs = report["obs"]
    return {
        "schema": "bench_throughput/v9",
        "commit": git_commit(),
        "methodology": METHODOLOGY,
        "jobs": {"sequential": 1,
                 "parallel": parallel["jobs"] if parallel else None},
        "grid": {
            "models": report["models"],
            "workloads": report["workloads"],
            "instructions_per_kernel": report["instructions_per_kernel"],
            "simulations": sequential["simulations"],
        },
        "env": {
            "repro_jobs": report["repro_jobs_env"],
            "cpu_count": report["cpu_count"],
            "parallel_skipped": report.get("parallel_skipped"),
        },
        "sims_per_sec": {
            "jobs1": sequential["sims_per_sec"],
            "jobsN": parallel["sims_per_sec"] if parallel else None,
        },
        "instructions_per_s": {
            "jobs1": sequential["instructions_per_s"],
            "jobsN": parallel["instructions_per_s"] if parallel else None,
        },
        "wall_clock_s": {
            "jobs1": sequential["wall_clock_s"],
            "jobsN": parallel["wall_clock_s"] if parallel else None,
            "reps": sequential["reps"],
        },
        "store": {
            "cold_wall_s": store["cold"]["wall_clock_s"],
            "warm_wall_s": store["warm"]["wall_clock_s"],
            "warm_speedup": store["warm_speedup"],
            "cold_hits": store["cold"]["store_hits"],
            "cold_misses": store["cold"]["store_misses"],
            "cold_writes": store["cold"]["store_writes"],
            "warm_hits": store["warm"]["store_hits"],
            "warm_all_hits": store["warm_all_hits"],
            "results_identical": store["results_identical"],
        },
        "generated": {
            "count": generated["count"],
            "seed": generated["seed"],
            "simulations": generated["simulations"],
            "build_wall_s": generated["build_wall_s"],
            "wall_clock_s": generated["wall_clock_s"],
            "sims_per_sec": generated["sims_per_sec"],
            "instructions_per_s": generated["instructions_per_s"],
        },
        "phase_attribution": {
            "simulations": attribution["simulations"],
            "reps": attribution["reps"],
            "on_wall_s": attribution["on_wall_s"],
            "off_wall_s": attribution["off_wall_s"],
            "on_sims_per_sec": attribution["on_sims_per_sec"],
            "off_sims_per_sec": attribution["off_sims_per_sec"],
            "overhead_pct": attribution["overhead_pct"],
        },
        "fault_tolerance": {
            "simulations": faults["simulations"],
            "jobs": faults["jobs"],
            "reps": faults["reps"],
            "death_rate": faults["death_rate"],
            "predicted_first_attempt_deaths":
                faults["predicted_first_attempt_deaths"],
            "clean_wall_s": faults["clean_wall_s"],
            "chaos_wall_s": faults["chaos_wall_s"],
            "clean_sims_per_sec": faults["clean_sims_per_sec"],
            "chaos_sims_per_sec": faults["chaos_sims_per_sec"],
            "recovery_overhead_pct": faults["recovery_overhead_pct"],
            "pool_breaks": faults["pool_breaks"],
            "retries": faults["retries"],
            "degradations": faults["degradations"],
            "single_core_note": faults["single_core_note"],
            "results_identical": faults["results_identical"],
        },
        "obs": {
            "simulations": obs["simulations"],
            "reps": obs["reps"],
            "off_wall_s": obs["off_wall_s"],
            "on_wall_s": obs["on_wall_s"],
            "off_sims_per_sec": obs["off_sims_per_sec"],
            "on_sims_per_sec": obs["on_sims_per_sec"],
            "overhead_pct": obs["overhead_pct"],
            "span_records": obs["span_records"],
            "results_identical": obs["results_identical"],
        },
        "results_identical": report["results_identical"],
    }


#: Throughput metrics the regression guard watches, as dotted paths
#: into the trend record.  Walls are deliberately absent (absolute
#: walls drift with the host; the rates below are min-of-3 and the
#: store ratio is host-normalised).
GUARD_METRICS = (
    "sims_per_sec.jobs1",
    "generated.sims_per_sec",
    "store.warm_speedup",
    "obs.on_sims_per_sec",
)
GUARD_THRESHOLD = 0.20


def _dig(record: dict, path: str):
    node = record
    for part in path.split("."):
        if not isinstance(node, dict) or part not in node:
            return None
        node = node[part]
    return node


def warn_on_regression(previous: dict, fresh: dict,
                       threshold: float = GUARD_THRESHOLD,
                       stream=None) -> list[str]:
    """Compare two trend records; shout any >threshold throughput drop.

    Returns the warning lines (empty list: no regression), and prints
    them to ``stream`` (default stderr) loudly enough that a regressed
    ``make bench`` cannot be mistaken for a clean one.  Schema-tolerant:
    metrics absent from either record (e.g. a v5 baseline without the
    obs phase) are skipped, never guessed.
    """
    stream = stream if stream is not None else sys.stderr
    warnings = []
    for metric in GUARD_METRICS:
        before, after = _dig(previous, metric), _dig(fresh, metric)
        if not isinstance(before, (int, float)) or before <= 0:
            continue
        if not isinstance(after, (int, float)):
            continue
        drop = 1.0 - after / before
        if drop > threshold:
            warnings.append(
                f"{metric} fell {drop * 100.0:.1f}%: "
                f"{before} (commit {previous.get('commit', '?')}) "
                f"-> {after}")
    if warnings:
        banner = "!" * 72
        print(banner, file=stream)
        print(f"!!! BENCH REGRESSION (> {threshold * 100.0:.0f}% "
              "vs previous record)", file=stream)
        for line in warnings:
            print(f"!!!   {line}", file=stream)
        print(banner, file=stream)
    return warnings


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("-j", "--jobs", type=int, default=None,
                        help="parallel worker count (default REPRO_JOBS/CPUs;"
                             " forces the jobs=N phase even on 1 CPU)")
    parser.add_argument("-n", "--instructions", type=int, default=None,
                        help="dynamic instructions per kernel")
    parser.add_argument("-w", "--workloads", type=str, default=None,
                        help="comma-separated workload refs (kernel names, "
                             "@specfile.json, gen:N[:SEED])")
    parser.add_argument("-o", "--output", type=str, default=None,
                        help="also write the compact trend record here; an "
                             "existing record there becomes the regression "
                             "baseline (>20%% drops are shouted to stderr)")
    parser.add_argument("--store-dir", type=str, default=None,
                        help="persistent store directory for the cold/warm "
                             "phase (default: ephemeral tmpdir; pass a path "
                             "to make second invocations store-hot)")
    parser.add_argument("--store-only", action="store_true",
                        help="skip every phase but the store cold/warm "
                             "measurement (`make bench-warm`)")
    args = parser.parse_args(argv)
    config = ExperimentConfig()
    if args.instructions is not None:
        config = dataclasses.replace(config, instructions=args.instructions)
    workloads = (resolve_workloads(
        w.strip() for w in args.workloads.split(",") if w.strip())
        if args.workloads else None)
    report = campaign_throughput(args.jobs, config, workloads,
                                 store_dir=args.store_dir,
                                 store_only=args.store_only)
    json.dump(report, sys.stdout, indent=2)
    print()
    if args.output:
        if args.store_only:
            print("--output needs the full run (drop --store-only); "
                  "skipping trend record", file=sys.stderr)
        else:
            record = bench_record(report)
            previous = None
            if os.path.exists(args.output):
                try:
                    with open(args.output) as handle:
                        previous = json.load(handle)
                except (OSError, json.JSONDecodeError):
                    print(f"previous record at {args.output} unreadable; "
                          "skipping regression check", file=sys.stderr)
            if previous is not None:
                warn_on_regression(previous, record)
            with open(args.output, "w") as handle:
                json.dump(record, handle, indent=1, sort_keys=True)
                handle.write("\n")
            print(f"trend record written to {args.output}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
