"""The engine's failure matrix: every fault the scheduler must absorb.

The contract under test (the chaos harness's whole point): every
injected fault the engine recovers from leaves campaign results
byte-identical to a fault-free run; a job that fails (its own
exception, or an overrun of the per-job timeout) fails once and alone;
and the ledger balances — every attempt completed, failed, or was lost
with its pool and re-ran.
"""

import json
import math

import pytest

from repro.exec import (
    CampaignReport,
    FaultPlan,
    RESULT_CACHE,
    ResultStore,
    SimJob,
    injected_faults,
    run_jobs,
)
from repro.exec import engine
from repro.exec.faults import FAULT_KINDS
from repro.exec.store import result_to_payload
from repro.harness.experiment import ExperimentConfig

WORKLOADS = ("mesa_like", "gzip_like", "crafty_like")
MODELS = ("in-order", "icfp", "runahead")


def _jobs(instructions=300):
    cfg = ExperimentConfig(instructions=instructions)
    return [SimJob(m, w, cfg) for w in WORKLOADS for m in MODELS]


def _payloads(results):
    return [json.dumps(result_to_payload(r), sort_keys=True)
            for r in results]


def _clean(jobs):
    return run_jobs(jobs, workers=1, memo=False, store=False)


def _balanced(report):
    """Every attempt completed, failed for good, or was lost and re-ran."""
    ran = sum(f.kind in ("exception", "timeout") for f in report.failures)
    return report.attempts == report.computed + report.retries + ran


def test_strict_false_records_failures_and_keeps_going():
    cfg = ExperimentConfig(instructions=300)
    jobs = [SimJob(m, w, cfg)
            for w in ("mesa_like", "doom_like") for m in ("in-order", "icfp")]
    report = CampaignReport()
    results = run_jobs(jobs, workers=1, memo=False, store=False,
                       report=report, strict=False)
    assert _payloads(results[:2]) == _payloads(_clean(jobs[:2]))
    assert results[2:] == [None, None]
    assert [(f.label, f.kind) for f in report.failures] \
        == [("in-order on doom_like", "exception"),
            ("icfp on doom_like", "exception")]
    assert report.attempts == len(jobs) and report.retries == 0
    assert not report.ok() and _balanced(report)


def test_genuine_exception_is_not_retried_and_carries_identity():
    cfg = ExperimentConfig(instructions=300)
    jobs = [SimJob("in-order", "doom_like", cfg)]
    report = CampaignReport()
    with pytest.raises(KeyError) as excinfo:
        run_jobs(jobs, workers=1, memo=False, store=False, report=report)
    assert report.retries == 0 and report.attempts == 1
    notes = getattr(excinfo.value, "__notes__", [])
    assert any("doom_like" in note and jobs[0].fingerprint[:16] in note
               for note in notes)


def test_failing_job_does_not_discard_siblings(tmp_path):
    cfg = ExperimentConfig(instructions=302)
    doomed = SimJob("in-order", "doom_like", cfg)
    good = SimJob("in-order", "mesa_like", cfg)
    store = ResultStore(str(tmp_path / "store"))
    with pytest.raises(KeyError):
        run_jobs([doomed, good], workers=1, memo=False, store=store)
    # the sibling computed after the failure was flushed anyway
    assert store.get_result(good.fingerprint) is not None


@pytest.mark.slow
def test_pool_death_recovery_is_byte_identical():
    jobs = _jobs()
    clean = _clean(jobs)
    report = CampaignReport()
    plan = FaultPlan(seed=5, worker_death=0.3)
    assert any(plan.roll("worker_death", j.fingerprint, 1) for j in jobs)
    with injected_faults(plan):
        faulty = run_jobs(jobs, workers=2, memo=False, store=False,
                          report=report)
    assert report.pool_breaks >= 1
    assert _payloads(faulty) == _payloads(clean)
    assert report.ok()


@pytest.mark.slow
def test_total_pool_loss_degrades_to_sequential(monkeypatch):
    jobs = _jobs()
    clean = _clean(jobs)
    report = CampaignReport()
    monkeypatch.setattr(engine, "MAX_POOL_BREAKS", 2)
    with injected_faults(FaultPlan(worker_death=1.0)):
        results = run_jobs(jobs, workers=2, memo=False, store=False,
                           report=report)
    assert report.pool_breaks == 2
    assert report.degradations == 1
    # in-process execution has no worker to kill: the campaign finishes
    assert _payloads(results) == _payloads(clean)
    assert report.retries >= 2 and _balanced(report)


def _one_slow_cell_plan(jobs):
    """A seed where exactly one job is slow at its first attempt and
    every other job is fast at attempts 1-2 (a sibling lost with the
    pool that reaps the slow one re-runs at attempt 2).

    Searched deterministically, like :func:`_acceptance_plan`.
    """
    for seed in range(10_000):
        plan = FaultPlan(seed=seed, slow=0.1, slow_seconds=2.0)
        slow = [j for j in jobs if plan.roll("slow", j.fingerprint, 1)]
        if len(slow) == 1 and not any(
                plan.roll("slow", j.fingerprint, attempt)
                for j in jobs if j is not slow[0] for attempt in (1, 2)):
            return plan, slow[0]
    raise AssertionError("no qualifying seed in range — widen the search")


@pytest.mark.slow
def test_timed_out_cell_fails_alone_and_siblings_stay_byte_identical(
        monkeypatch):
    jobs = _jobs()
    clean = _clean(jobs)
    plan, slow = _one_slow_cell_plan(jobs)
    monkeypatch.setenv("REPRO_JOB_TIMEOUT", "0.5")
    report = CampaignReport()
    with injected_faults(plan):
        results = run_jobs(jobs, workers=2, memo=False, store=False,
                           report=report, strict=False)
    assert [(f.fingerprint, f.kind) for f in report.failures] \
        == [(slow.fingerprint, "timeout")]
    assert report.timeouts == 1 and report.degradations == 0
    assert [None if r is None else _payloads([r])[0] for r in results] \
        == [None if job is slow else payload
            for job, payload in zip(jobs, _payloads(clean))]
    assert _balanced(report)


def _casualty_plan(job_a, job_b):
    """A seed where A's attempt 1 kills its worker and attempt 2 is
    clean, while B is clean at attempts 1-2.

    Searched deterministically, like :func:`_acceptance_plan`.
    """
    for seed in range(50_000):
        plan = FaultPlan(seed=seed, worker_death=0.5)
        a, b = job_a.fingerprint, job_b.fingerprint
        if (plan.roll("worker_death", a, 1)
                and not plan.roll("worker_death", a, 2)
                and not any(plan.roll("worker_death", b, attempt)
                            for attempt in (1, 2))):
            return plan
    raise AssertionError("no qualifying seed in range — widen the search")


def test_pool_casualty_reruns_for_free_and_counts_as_a_retry():
    cfg = ExperimentConfig(instructions=300)
    jobs = [SimJob("in-order", w, cfg) for w in ("mesa_like", "gzip_like")]
    clean = _clean(jobs)
    report = CampaignReport()
    with injected_faults(_casualty_plan(*jobs)):
        results = run_jobs(jobs, workers=2, memo=False, store=False,
                           report=report)
    # A lost its worker, so A (and B, unless it had finished) re-ran on
    # a fresh pool: re-runs are retries, not failures.
    assert report.pool_breaks == 1
    assert 1 <= report.retries <= 2
    assert report.attempts == len(jobs) + report.retries
    assert report.ok()
    assert _payloads(results) == _payloads(clean)


def test_prewarm_failure_is_isolated_to_its_workload():
    cfg = ExperimentConfig(instructions=304)
    jobs = [SimJob(m, w, cfg)
            for w in ("mesa_like", "doom_like", "gzip_like")
            for m in ("in-order", "icfp")]
    report = CampaignReport()
    results = run_jobs(jobs, workers=2, memo=False, store=False,
                       report=report, strict=False)
    by_workload = {}
    for job, result in zip(jobs, results):
        by_workload.setdefault(job.workload, []).append(result)
    assert all(r is not None for r in by_workload["mesa_like"])
    assert all(r is not None for r in by_workload["gzip_like"])
    assert by_workload["doom_like"] == [None, None]
    assert len(report.failures) == 2
    assert all(f.kind == "trace" for f in report.failures)


def _single_kind_plan(kind, jobs):
    """A seed where ``kind`` alone fires on some job's first attempt (or
    first record write).

    Searched deterministically, like :func:`_acceptance_plan`.
    """
    for seed in range(1000):
        plan = FaultPlan(seed=seed, **{kind: 0.3})
        if kind.startswith("store_"):
            fired = (plan.roll(kind, j.fingerprint + ".json", 0)
                     for j in jobs)
        else:
            fired = (plan.roll(kind, j.fingerprint, 1) for j in jobs)
        if any(fired):
            return plan
    raise AssertionError("no qualifying seed in range — widen the search")


@pytest.mark.slow
@pytest.mark.parametrize("kind", FAULT_KINDS)
def test_each_fault_kind_alone_leaves_a_pool_campaign_byte_identical(
        tmp_path, kind):
    jobs = _jobs(instructions=317)
    clean = _clean(jobs)
    plan = _single_kind_plan(kind, jobs)
    store = ResultStore(str(tmp_path / "store"))
    report = CampaignReport()
    with injected_faults(plan) as injector:
        faulty = run_jobs(jobs, workers=2, memo=False, store=store,
                          report=report)
    assert _payloads(faulty) == _payloads(clean)
    assert report.ok()
    # The fault really fired (worker-side kinds count in the worker, so
    # their evidence is what the coordinator absorbed).
    if kind == "worker_death":
        assert report.pool_breaks >= 1
    elif kind.startswith("store_"):
        assert injector.counts[kind] >= 1

    # A second pooled run serves every intact record and recomputes
    # exactly the torn ones: byte-identical again.
    resumed_report = CampaignReport()
    resumed = run_jobs(jobs, workers=2, memo=False, store=store,
                       report=resumed_report)
    assert _payloads(resumed) == _payloads(clean)
    assert resumed_report.store_hits + resumed_report.computed == len(jobs)
    if kind.startswith("store_"):
        assert resumed_report.computed >= 1
        assert store.quarantined == resumed_report.computed
    else:
        assert resumed_report.computed == 0


def _acceptance_plan(jobs):
    """A seed where >=10% of first attempts die AND >=1 write truncates.

    Searched deterministically so the test tracks fingerprint changes
    instead of hardcoding a seed that silently stops injecting.
    """
    need_deaths = max(1, math.ceil(0.1 * len(jobs)))
    for seed in range(200):
        plan = FaultPlan(seed=seed, worker_death=0.3, store_truncate=0.25)
        deaths = sum(plan.roll("worker_death", j.fingerprint, 1)
                     for j in jobs)
        truncs = sum(plan.roll("store_truncate", j.fingerprint + ".json", 0)
                     for j in jobs)
        if deaths >= need_deaths and truncs >= 1:
            return plan
    raise AssertionError("no qualifying seed in range — widen the search")


@pytest.mark.slow
def test_acceptance_chaos_campaign_is_byte_identical_and_store_heals(
        tmp_path):
    jobs = _jobs(instructions=307)
    clean_store = ResultStore(str(tmp_path / "clean"))
    clean = run_jobs(jobs, workers=1, memo=False, store=clean_store)

    plan = _acceptance_plan(jobs)
    chaos_store = ResultStore(str(tmp_path / "chaos"))
    report = CampaignReport()
    with injected_faults(plan) as injector:
        faulty = run_jobs(jobs, workers=2, memo=False, store=chaos_store,
                          report=report)
    # the plan really injected: >=10% worker deaths on first attempts,
    # and at least one record write was torn (parent-side, so counted)
    assert report.pool_breaks >= 1
    assert injector.counts["store_truncate"] >= 1
    assert _payloads(faulty) == _payloads(clean)
    # every cell lost with a dead worker re-ran: the ledger balances
    assert report.retries >= 1 and report.ok() and _balanced(report)

    # the torn record reads as corrupt, is quarantined, and a re-run
    # recomputes exactly the damaged cells — byte-identical again
    resumed_report = CampaignReport()
    resumed = run_jobs(jobs, workers=1, memo=False, store=chaos_store,
                       report=resumed_report)
    assert chaos_store.corrupt >= 1
    assert chaos_store.quarantined >= 1
    assert resumed_report.store_hits + resumed_report.computed == len(jobs)
    assert resumed_report.computed >= 1
    assert _payloads(resumed) == _payloads(clean)

    # healed: with chaos off, every record now round-trips from disk
    final = run_jobs(jobs, workers=1, memo=False, store=chaos_store,
                     report=(final_report := CampaignReport()))
    assert final_report.store_hits == len(jobs)
    assert final_report.computed == 0
    assert _payloads(final) == _payloads(clean)
