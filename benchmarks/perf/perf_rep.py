"""One repetition of one workload, in a fresh process.

``run.py`` starts this file once per repetition, so every repetition
pays the set-up a user pays (imports, kernel assembly or composition,
functional execution, warm tag stores) and host drift inside one
process cannot carry from one repetition to the next::

    python3 benchmarks/perf/perf_rep.py '<request json>'

The request names the ``workload``, ``seed`` and ``mode``, the parent's
``time.perf_counter()`` just before the spawn (``spawned_at``: the
monotonic clock is system-wide, so set-up time counts from process
start), and a scratch ``workdir`` inside the checkout.  ``instructions``
and ``replays`` override the workload's budgets for quick self-tests.
One JSON object goes to stdout.

Modes:

``time``
    Set up, run every cell once (named workloads: driving each core
    directly; ``gen-campaign``: a cold ``run_jobs`` campaign into a
    fresh store, each cell timed by :class:`CellClock`), then replay the
    finished grid from the store.  Set-up, every cell and every replay
    are bracketed by ``perf_host`` yardstick passes.
``setup``
    Set up only, timed and bracketed as in ``time``: more set-up
    samples for a run's time budget.
``trace``
    Set up, run the cells untraced, fill and replay the store with the
    ``repro.exec`` calls timed, then run the cells again with
    :class:`perf_layers.Probe` wrappers and the obs engine probe on, and
    derive every per-layer metric.
``profile``
    Set up and run the cells once under cProfile.
"""

from __future__ import annotations

import cProfile
import gc
import json
import os
import pstats
import resource
import shutil
import statistics
import sys
import tempfile
from time import perf_counter

import perf_host
from perf_layers import COMPOSE_CALL, EXEC_CALLS, Probe, derive, profile_rows
from perf_workloads import (
    MODELS,
    WORKLOADS,
    cell_key,
    check,
    config_for,
    digest,
    generated_specs,
    kernel_names,
    named_trace,
)


def setup(workload, seed: int, instructions: int, probe: Probe | None = None):
    """Build every trace and warm every tag store.

    Returns ``(refs, timings)``; ``refs`` is ``[(name, ref, trace)]``
    where ``ref`` is what a ``SimJob`` names: a kernel or a spec.
    """
    from repro.exec import TRACE_CACHE
    from repro.harness.experiment import make_core

    start = perf_counter()
    if workload.generated:
        TRACE_CACHE.clear()  # set up from nothing, even in a reused process
        refs = [(spec.name, spec, TRACE_CACHE.get(spec, instructions))
                for spec in generated_specs(workload, seed)]
    else:
        refs = [(name, name, named_trace(name, seed, instructions))
                for name in kernel_names(workload)]
    built = perf_counter()
    config = config_for(instructions)
    for _name, _ref, trace in refs:
        make_core("in-order", trace, config)  # warms the shared snapshot
    compose_s = probe.self_ns(COMPOSE_CALL[3]) / 1e9 if probe else 0.0
    return refs, {
        "build_s": built - start - compose_s,
        "compose_s": compose_s,
        "warm_s": perf_counter() - built,
        "traced_instructions": sum(len(trace) for _n, _r, trace in refs),
    }


def cell_pass(refs, instructions: int, leaps: bool = False,
              yardstick: bool = False):
    """Every (kernel, model) cell once, in-process, each timed alone.

    Returns ``(cells, results)``.  With ``leaps`` the obs engine probe's
    counters are cleared before and read after each cell (the tracer
    must already be active).  With ``yardstick`` every cell is
    bracketed by ``perf_host.sample()`` passes (``cell["yardstick"]``:
    the one before it and the one after it).
    """
    from repro.harness.experiment import make_core
    from repro.obs.metrics import REGISTRY

    config = config_for(instructions)
    cells, results, traces = [], {}, {}
    brackets = perf_host.Brackets() if yardstick else None
    for name, _ref, trace in refs:
        for model in MODELS:
            key = cell_key(name, model)
            cell = {"key": key, "kernel": name, "model": model}
            cells.append(cell)
            if leaps:
                REGISTRY.clear()
            start = perf_counter()
            try:
                results[key] = make_core(model, trace, config).run()
            except Exception as exc:  # any failure is this cell's error
                cell["error"] = f"{type(exc).__name__}: {exc}"
                continue
            cell["seconds"] = perf_counter() - start
            if brackets:
                cell["yardstick"] = brackets.next()
            traces[key] = trace
            if leaps:
                counters = REGISTRY.snapshot()["counters"]
                cell["leaps"] = counters.get("engine.leaps", 0)
                cell["leapt"] = counters.get("engine.cycles.leapt", 0)
                cell["sources"] = {
                    counter.rsplit(".", 1)[1]: value
                    for counter, value in counters.items()
                    if counter.startswith("engine.horizon.")}
    for cell in cells:
        if cell["key"] in results:
            cell.update(_summary(results[cell["key"]], traces[cell["key"]]))
    return cells, results


def _summary(result, trace) -> dict:
    stats = result.stats
    return {"digest": digest(result), "error": check(result, trace),
            "instructions": stats.instructions, "cycles": stats.cycles,
            "l1d_misses": stats.l1d_misses, "l2_misses": stats.l2_misses,
            "advance_instructions": stats.advance_instructions,
            "rally_instructions": stats.rally_instructions}


class CellClock:
    """Each cell's host time in a cold ``run_jobs`` campaign, from outside.

    In one process ``run_jobs`` computes one cell after another and
    writes each to the store as it completes, so the store's writes cut
    the campaign into one interval per cell: from the end of the
    previous write (for the first cell, the campaign's start, so it also
    carries the fingerprinting and the store look-ups) to the end of the
    cell's own write.  A ``perf_host`` pass after every write closes the
    bracket of the interval it ends and opens the next one's.  Only the
    counter flush after the last write goes untimed.
    """

    def __init__(self, store) -> None:
        #: job fingerprint -> (seconds, yardstick bracket)
        self.cells: dict[str, tuple[float, list[float]]] = {}
        brackets = perf_host.Brackets()
        put = store.put_result
        start = perf_counter()

        def put_result(fp, result):
            nonlocal start
            written = put(fp, result)
            self.cells[fp] = (perf_counter() - start, brackets.next())
            start = perf_counter()
            return written
        store.put_result = put_result  # this store only


def campaign(workload, refs, instructions: int, replays: int, workdir: str,
             results: dict, probe: Probe | None = None,
             yardstick: bool = False) -> dict:
    """The ``repro.exec`` path: fill a fresh ``ResultStore``, then replay.

    ``gen-campaign`` fills it with a cold ``run_jobs`` campaign (its wall
    is ``cold_s``); the named workloads file the ``results`` of their
    in-process pass.  Each replay clears the RAM memo, so every cell
    must come back from the store, byte-identical to what went in.
    Returns each cell's digest and any error, keyed by cell.  With
    ``yardstick`` every cold cell (:class:`CellClock`) and every replay
    (``replay_yardstick``, one pair per replay) is bracketed by
    ``perf_host`` passes.
    """
    from repro.exec import (RESULT_CACHE, CampaignReport, ResultStore,
                            SimJob, run_jobs)

    config = config_for(instructions)
    grid = [(cell_key(name, model), SimJob(model, ref, config), trace)
            for name, ref, trace in refs for model in MODELS]
    jobs = [job for _key, job, _trace in grid]
    out: dict = {"cells": {}, "replay_s": [], "replay_yardstick": []}
    root = tempfile.mkdtemp(prefix="store-", dir=workdir)
    try:
        store = ResultStore(root)
        if workload.generated:
            RESULT_CACHE.clear()
            report = CampaignReport()
            clock = CellClock(store) if yardstick else None
            start = perf_counter()
            cold = run_jobs(jobs, workers=1, store=store, report=report,
                            strict=False)
            out["cold_s"] = perf_counter() - start
            out["retries"] = report.retries
            out["failures"] = len(report.failures)
            for (key, job, trace), result in zip(grid, cold):
                cell = out["cells"][key] = (
                    {"error": "campaign job failed"} if result is None
                    else _summary(result, trace))
                if clock and job.fingerprint in clock.cells:
                    cell["seconds"], cell["yardstick"] = \
                        clock.cells[job.fingerprint]
        else:
            for key, job, trace in grid:
                result = results.get(key)
                if result is not None:
                    store.put_result(job.fingerprint, result)
                    out["cells"][key] = _summary(result, trace)
        if probe is not None:
            get = probe.calls[EXEC_CALLS[0][3]]
            get[0] = get[1] = 0  # time replay reads, not cold misses
        # A replay-only process holds no traces: freeze the set-up heap
        # so the collections a replay triggers do not walk it.
        gc.collect()
        gc.freeze()
        try:
            brackets = perf_host.Brackets() if yardstick else None
            for _ in range(replays):
                _replay(jobs, store, grid, out)
                if brackets:
                    out["replay_yardstick"].append(brackets.next())
        finally:
            gc.unfreeze()
        out["store"] = _store_sizes(store)
    finally:
        shutil.rmtree(root, ignore_errors=True)
    return out


def _replay(jobs, store, grid, out: dict) -> None:
    """One timed warm replay; flags cells that do not come back intact."""
    from repro.exec import RESULT_CACHE, CampaignReport, run_jobs

    RESULT_CACHE.clear()
    report = CampaignReport()
    start = perf_counter()
    warm = run_jobs(jobs, workers=1, store=store, report=report,
                    strict=False)
    out["replay_s"].append(perf_counter() - start)
    for (key, _job, _trace), result in zip(grid, warm):
        cell = out["cells"].get(key)
        if cell is None or "digest" not in cell:
            continue
        if result is None or digest(result) != cell["digest"]:
            cell["error"] = "warm replay was not a byte-identical store hit"
    if report.computed:
        for cell in out["cells"].values():
            cell["error"] = "warm replay recomputed cells"


def _store_sizes(store) -> dict:
    sizes = []
    for directory, _dirs, files in os.walk(
            os.path.join(store.version_dir, "results")):
        sizes += [os.path.getsize(os.path.join(directory, name))
                  for name in files if name.endswith(".json")]
    return {"hits": store.hits, "writes": store.writes,
            "bytes_per_record": sum(sizes) / len(sizes) if sizes else 0.0}


def peak_rss_mb() -> float:
    """Peak RSS of this process."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# modes
# ----------------------------------------------------------------------
#: Yardstick passes on each side of set-up, one measurement per
#: repetition.
SETUP_SAMPLES = 3


def timed_setup(workload, seed, instructions, spawned_at):
    """:func:`setup`, timed from process start and bracketed by
    yardstick passes; ``(refs, {"setup_s", "setup_yardstick"})``."""
    def bracket():
        return [perf_host.sample() for _ in range(SETUP_SAMPLES)]

    start = perf_counter()
    before = bracket()
    own_s = perf_counter() - start  # the yardstick's, not set-up's
    refs, _timings = setup(workload, seed, instructions)
    return refs, {"setup_s": perf_counter() - spawned_at - own_s,
                  "setup_yardstick": before + bracket()}


def setup_rep(workload, seed, instructions, replays, spawned_at, workdir):
    return timed_setup(workload, seed, instructions, spawned_at)[1]


def time_rep(workload, seed, instructions, replays, spawned_at, workdir):
    refs, out = timed_setup(workload, seed, instructions, spawned_at)
    cells, results = ([], {}) if workload.generated else cell_pass(
        refs, instructions, yardstick=True)
    store = campaign(workload, refs, instructions, replays, workdir, results,
                     yardstick=True)
    out.update(replay_s=store["replay_s"], cells=store["cells"],
               replay_yardstick=store["replay_yardstick"])
    for cell in cells:
        kept = out["cells"].setdefault(cell["key"],
                                       {"error": cell.get("error")})
        if "seconds" in cell:
            kept.update(seconds=cell["seconds"], yardstick=cell["yardstick"])
    out["rss_mb"] = peak_rss_mb()
    return out


def trace_rep(workload, seed, instructions, replays, spawned_at, workdir):
    from repro.obs import trace as obs_trace

    probe = Probe()
    probe.calibrate()
    leftovers = []
    try:
        if workload.generated:
            probe.install((COMPOSE_CALL,), steps=False)
        refs, timings = setup(workload, seed, instructions, probe)
    finally:
        leftovers += probe.restore()
    untraced, results = cell_pass(refs, instructions)

    try:
        probe.install(EXEC_CALLS, steps=False)
        fingerprint_us = _fingerprint_us(refs, instructions)
        store = campaign(workload, refs, instructions, replays, workdir,
                         results, probe)
    finally:
        leftovers += probe.restore()

    obs_root = tempfile.mkdtemp(prefix="obs-", dir=workdir)
    obs_trace.activate(obs_root)
    try:
        probe.install()
        traced, _results = cell_pass(refs, instructions, leaps=True)
    finally:
        leftovers += probe.restore()
        obs_trace.deactivate()
        shutil.rmtree(obs_root, ignore_errors=True)

    traced_s = sum(c.get("seconds", 0.0) for c in traced)
    untraced_s = sum(c.get("seconds", 0.0) for c in untraced)
    cells, good = {}, []
    for base, cell in zip(untraced, traced):
        key = base["key"]
        kept = store["cells"].get(key, {})
        error = base.get("error") or cell.get("error") or kept.get("error")
        if error is None and cell["digest"] != base["digest"]:
            error = "traced result differs from the untraced result"
        if error is None and kept["digest"] != base["digest"]:
            error = "campaign result differs from the in-process result"
        if leftovers:
            error = f"attributes left patched: {leftovers}"
        cells[key] = {"digest": base.get("digest"), "error": error}
        if error is None:
            good.append(dict(cell, seconds=base["seconds"]))
    exec_metrics = _exec_metrics(probe, store, fingerprint_us)
    layers = derive(good, probe, timings, exec_metrics,
                    untraced_s=untraced_s, traced_s=traced_s)
    return {"cells": cells, "layers": layers, "leftovers": leftovers}


def _fingerprint_us(refs, instructions: int, rounds: int = 5) -> float:
    """Median cost of fingerprinting one fresh ``SimJob`` of the grid."""
    from repro.exec import SimJob

    config = config_for(instructions)
    specs = [(model, ref) for _name, ref, _trace in refs for model in MODELS]
    costs = []
    for _ in range(rounds):
        jobs = [SimJob(model, ref, config) for model, ref in specs]
        start = perf_counter()
        for job in jobs:
            job.fingerprint
        costs.append((perf_counter() - start) / len(jobs))
    return statistics.median(costs) * 1e6


def _exec_metrics(probe, store, fingerprint_us) -> dict:
    def ms_per(prefix):
        calls = probe.count(prefix)
        return probe.self_ns(prefix) / calls / 1e6 if calls else 0.0

    get, put, run = (prefix for *_where, prefix in EXEC_CALLS)
    cold_s = store.get("cold_s")
    return {
        "fingerprint.us_per_call": fingerprint_us,
        "store.get_ms_per_record": ms_per(get),
        "store.put_ms_per_record": ms_per(put),
        "store.bytes_per_record": store["store"]["bytes_per_record"],
        "store.hits": store["store"]["hits"],
        "store.writes": store["store"]["writes"],
        "compute_frac": probe.self_ns(run) / 1e9 / cold_s if cold_s else 0.0,
        "retries": store.get("retries", 0),
        "failures": store.get("failures", 0),
    }


def profile_rep(workload, seed, instructions, replays, spawned_at, workdir):
    from repro.harness.experiment import make_core

    refs, _timings = setup(workload, seed, instructions)
    config = config_for(instructions)
    profiler = cProfile.Profile()
    profiler.enable()
    for _name, _ref, trace in refs:
        for model in MODELS:
            make_core(model, trace, config).run()
    profiler.disable()
    return {"rows": profile_rows(pstats.Stats(profiler))}


MODES = {"time": time_rep, "setup": setup_rep, "trace": trace_rep,
         "profile": profile_rep}


def run_rep(request: dict) -> dict:
    from repro.exec import ENGINE_VERSION

    workload = WORKLOADS[request["workload"]]
    instructions = request.get("instructions") or workload.instructions
    replays = request.get("replays")
    replays = workload.replays if replays is None else replays
    out = MODES[request["mode"]](workload, request["seed"], instructions,
                                 replays, request["spawned_at"],
                                 request["workdir"])
    out["engine"] = ENGINE_VERSION
    return out


if __name__ == "__main__":
    print(json.dumps(run_rep(json.loads(sys.argv[1]))))
