"""The process pool, the campaign engine's one parallel path.

What a pooled campaign must keep: byte-identical results whatever the
tier a cell came from (memo, disk store, pool worker), no pool at all
for work that cannot use one, workers that run their jobs sequentially
and exit with their coordinator, dead workers that cost only their
in-flight work (which re-runs, counted as retries), and timed-out
attempts that fail their own job and nothing else, and stop running
when their pool is torn down.
"""

import json
import multiprocessing
import os
import signal
import threading
import time
from types import SimpleNamespace

import pytest

from repro.exec import (
    CampaignReport,
    FaultPlan,
    RESULT_CACHE,
    ResultStore,
    SimJob,
    injected_faults,
    parallel_map,
    run_jobs,
)
from repro.exec import engine
from repro.exec.faults import in_worker_process
from repro.exec.store import result_to_payload
from repro.harness.cli import main
from repro.harness.experiment import ExperimentConfig
from repro.obs import metrics as obs_metrics

WORKLOADS = ("mesa_like", "gzip_like", "crafty_like")
MODELS = ("in-order", "icfp")


def _jobs(instructions=313):
    cfg = ExperimentConfig(instructions=instructions)
    return [SimJob(m, w, cfg) for w in WORKLOADS for m in MODELS]


def _payloads(results):
    return [json.dumps(result_to_payload(r), sort_keys=True)
            for r in results]


def _clean(jobs):
    return run_jobs(jobs, workers=1, memo=False, store=False)


def _square(x):
    return x * x


def _worker_state(_item):
    return {
        "pid": os.getpid(),
        "jobs": os.environ.get("REPRO_JOBS"),
        "in_worker": in_worker_process(),
        "threads": [(t.name, t.daemon) for t in threading.enumerate()],
    }


def _die_once(arg):
    """SIGKILL this worker the first time item 1 runs (the OOM killer)."""
    marker, value = arg
    if value == 1 and not os.path.exists(marker):
        open(marker, "w").close()
        os.kill(os.getpid(), signal.SIGKILL)
    return value * 10


def _nap_then_die_once(arg):
    """:func:`_die_once` after a 20 ms nap, so that most of a campaign
    is still waiting for a worker when item 1 kills its own."""
    time.sleep(0.02)
    return _die_once(arg)


def _fail_on_three(x):
    if x == 3:
        raise ValueError("three is right out")
    return x


def _nap(seconds):
    time.sleep(seconds)
    return seconds


def _registry_counters(_item):
    return obs_metrics.REGISTRY.snapshot()["counters"]


def _balanced(report):
    """Every attempt completed, failed for good, or was lost and re-ran."""
    ran = sum(f.kind in ("exception", "timeout") for f in report.failures)
    return report.attempts == report.computed + report.retries + ran


@pytest.fixture
def pool_sizes(monkeypatch):
    """Record the size of every pool the engine starts."""
    sizes = []
    real_pool = engine._pool

    def spy(workers):
        sizes.append(workers)
        return real_pool(workers)

    monkeypatch.setattr(engine, "_pool", spy)
    return sizes


# ----------------------------------------------------------------------
# when the pool is (not) used
# ----------------------------------------------------------------------
def _one_worker():
    return run_jobs(_jobs()[:2], workers=1, memo=False, store=False)


def _one_fresh_job():
    return run_jobs(_jobs()[:1], workers=2, memo=False, store=False)


def _all_cached():
    jobs = _jobs()[:2]
    run_jobs(jobs, workers=1, store=False)
    report = CampaignReport()
    results = run_jobs(jobs, workers=2, store=False, report=report)
    assert report.memo_hits == len(jobs)
    return results


def _one_map_item():
    return parallel_map(_square, [7], workers=2)


@pytest.mark.parametrize("campaign", [_one_worker, _one_fresh_job,
                                      _all_cached, _one_map_item],
                         ids=["one-worker", "one-fresh-job", "all-cached",
                              "one-map-item"])
def test_small_campaigns_never_start_a_pool(monkeypatch, campaign):
    def no_pool(workers):
        raise AssertionError(f"started a {workers}-worker pool")

    monkeypatch.setattr(engine, "_pool", no_pool)
    assert all(r is not None for r in campaign())


@pytest.mark.parametrize("jobs_env, expected", [("1", []), ("2", [2])])
def test_jobs_env_knob_routes_campaigns_through_the_pool(
        monkeypatch, pool_sizes, jobs_env, expected):
    monkeypatch.setenv("REPRO_JOBS", jobs_env)
    jobs = _jobs()
    assert _payloads(run_jobs(jobs, memo=False, store=False)) \
        == _payloads(_clean(jobs))
    assert pool_sizes == expected


def test_pool_is_sized_to_the_runnable_work(pool_sizes):
    jobs = _jobs()[:2]
    results = run_jobs(jobs, workers=8, memo=False, store=False)
    assert pool_sizes == [2]
    assert _payloads(results) == _payloads(_clean(jobs))


# ----------------------------------------------------------------------
# the workers themselves
# ----------------------------------------------------------------------
def test_pool_workers_run_jobs_sequentially_and_watch_their_parent():
    states = parallel_map(_worker_state, range(4), workers=2)
    for state in states:
        assert state["pid"] != os.getpid()
        assert state["jobs"] == "1"  # no nested pools
        assert state["in_worker"]    # worker-death faults may fire there
        assert ("repro-parent-watch", True) in state["threads"]
    # ...and none of it leaks back into the coordinator.
    assert not in_worker_process()
    assert not any(t.name == "repro-parent-watch"
                   for t in threading.enumerate())


def test_parent_watch_exits_once_the_parent_is_gone(monkeypatch):
    parents = iter([100, 100, 1])  # reparented to init on the third poll
    sleeps = []

    class Exited(Exception):
        pass

    def fake_exit(code):
        raise Exited(code)

    monkeypatch.setattr(engine, "os", SimpleNamespace(
        getppid=lambda: next(parents), _exit=fake_exit))
    monkeypatch.setattr(engine, "time", SimpleNamespace(sleep=sleeps.append))
    with pytest.raises(Exited) as excinfo:
        engine._exit_with_parent(100)
    assert excinfo.value.args == (0,)
    assert sleeps == [engine._PARENT_POLL_SECONDS] * 2


def test_traced_pool_workers_start_from_an_empty_registry(
        tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_TRACE", str(tmp_path / "obs"))
    obs_metrics.counter("coordinator.only").inc(5)
    for counters in parallel_map(_registry_counters, range(2), workers=2):
        assert "coordinator.only" not in counters
    assert obs_metrics.REGISTRY.snapshot()["counters"] \
        == {"coordinator.only": 5}


@pytest.mark.parametrize("faults", [None, FaultPlan(worker_death=1.0)],
                         ids=["clean", "every-worker-dies"])
def test_pool_leaves_no_live_workers(monkeypatch, faults):
    before = set(multiprocessing.active_children())
    jobs = _jobs()
    monkeypatch.setattr(engine, "MAX_POOL_BREAKS", 2)
    with injected_faults(faults):
        results = run_jobs(jobs, workers=2, memo=False, store=False)
    assert _payloads(results) == _payloads(_clean(jobs))
    deadline = time.monotonic() + 10.0
    while (set(multiprocessing.active_children()) - before
           and time.monotonic() < deadline):
        time.sleep(0.05)
    assert set(multiprocessing.active_children()) - before == set()


# ----------------------------------------------------------------------
# the cache tiers around the pool
# ----------------------------------------------------------------------
def test_pool_without_a_store_matches_sequential():
    jobs = _jobs()
    report = CampaignReport()
    results = run_jobs(jobs, workers=2, store=False, report=report)
    assert _payloads(results) == _payloads(_clean(jobs))
    assert report.computed == len(jobs) and report.store_hits == 0


def test_pool_flushes_every_computed_cell_to_the_store(tmp_path):
    jobs = _jobs()
    results = run_jobs(jobs, workers=2, memo=False,
                       store=ResultStore(str(tmp_path / "store")))
    reader = ResultStore(str(tmp_path / "store"))
    stored = [reader.get_result(job.fingerprint) for job in jobs]
    assert all(r is not None for r in stored)
    assert _payloads(stored) == _payloads(results)


def test_pool_resumes_from_a_partially_flushed_store(tmp_path):
    jobs = _jobs()
    clean = _clean(jobs)
    store = ResultStore(str(tmp_path / "store"))
    for job, result in list(zip(jobs, clean))[::2]:
        store.put_result(job.fingerprint, result)
    report = CampaignReport()
    resumed = run_jobs(jobs, workers=2, memo=False, store=store,
                       report=report)
    assert report.store_hits == len(jobs[::2])
    assert report.computed == len(jobs[1::2])
    assert _payloads(resumed) == _payloads(clean)


def test_pool_dedupes_within_a_batch_and_memoizes_across_calls():
    jobs = _jobs()
    first = CampaignReport()
    results = run_jobs(jobs + jobs[:2], workers=2, store=False,
                       report=first)
    assert first.computed == len(jobs)
    assert _payloads(results) == _payloads(_clean(jobs + jobs[:2]))
    again = CampaignReport()
    memoized = run_jobs(jobs, workers=2, store=False, report=again)
    assert again.memo_hits == len(jobs) and again.computed == 0
    assert all(a is b for a, b in zip(memoized, results))
    assert all(RESULT_CACHE.get(job.fingerprint) is not None
               for job in jobs)


# ----------------------------------------------------------------------
# failures on the pool
# ----------------------------------------------------------------------
def test_sigkilled_worker_is_a_casualty_not_a_failure(tmp_path):
    marker = str(tmp_path / "killed-once")
    report = CampaignReport()
    results = parallel_map(_die_once, [(marker, i) for i in range(4)],
                           workers=2, report=report)
    assert results == [0, 10, 20, 30]
    assert os.path.exists(marker)  # the kill really happened
    assert report.pool_breaks == 1 and report.degradations == 0
    # The killed item, and any sibling lost with it, re-ran on a fresh
    # pool: each re-run is a retry, none is a failure.
    assert report.retries >= 1
    assert report.ok() and _balanced(report)


def test_a_worker_death_loses_only_in_flight_jobs(tmp_path):
    # Without a timeout the pool holds one queued job beside the running
    # ones, so a worker death re-runs at most workers + 1 jobs, not
    # every job still waiting in line.
    marker = str(tmp_path / "killed-once")
    report = CampaignReport()
    results = parallel_map(_nap_then_die_once,
                           [(marker, i) for i in range(20)],
                           workers=2, report=report)
    assert results == [10 * i for i in range(20)]
    assert report.pool_breaks == 1 and report.degradations == 0
    assert 1 <= report.retries <= 3
    assert report.ok() and _balanced(report)


def test_pool_exception_is_not_retried_and_names_its_item():
    report = CampaignReport()
    with pytest.raises(ValueError, match="three is right out") as excinfo:
        parallel_map(_fail_on_three, range(6), workers=2, report=report)
    assert any("_fail_on_three[3]" in note
               for note in excinfo.value.__notes__)
    assert report.retries == 0
    assert report.computed == 5  # every sibling still finished
    assert [(f.label, f.kind) for f in report.failures] \
        == [("_fail_on_three[3]", "exception")]
    assert _balanced(report)


def test_timed_out_attempts_stay_charged(monkeypatch):
    # Item 0 overruns its deadline.  The timeout fails it for good (a
    # re-run would overrun again) and takes down only its pool: the
    # quick sibling had already finished and keeps its result.
    monkeypatch.setenv("REPRO_JOB_TIMEOUT", "0.5")
    report = CampaignReport()
    with pytest.raises(TimeoutError, match="exceeded 0.5s") as excinfo:
        parallel_map(_nap, [2.0, 0.0], workers=2, report=report)
    assert any("_nap[0]" in note for note in excinfo.value.__notes__)
    assert [(f.label, f.kind) for f in report.failures] \
        == [("_nap[0]", "timeout")]
    assert report.timeouts == 1 and report.attempts == 2
    assert report.computed == 1 and report.retries == 0
    assert report.degradations == 0


def test_timed_out_attempts_do_not_outlive_their_pool(monkeypatch):
    # A running future cannot be cancelled: unless the teardown kills
    # its worker, an overdue attempt (a livelocked cell) keeps a CPU
    # busy long after its campaign has returned.
    monkeypatch.setenv("REPRO_JOB_TIMEOUT", "0.5")
    before = set(multiprocessing.active_children())
    with pytest.raises(TimeoutError):
        parallel_map(_nap, [30.0, 0.0], workers=2)
    deadline = time.monotonic() + 5.0
    while (set(multiprocessing.active_children()) - before
           and time.monotonic() < deadline):
        time.sleep(0.05)
    assert set(multiprocessing.active_children()) - before == set()


def test_a_timeout_teardown_keeps_siblings_that_finish_in_time(monkeypatch):
    # Item 0 is overdue at 1.0 s.  Item 2 took item 1's worker at 0.5 s
    # and ends at 1.25 s, inside its own deadline (1.5 s): the teardown
    # waits for it rather than throwing it away to re-run from scratch.
    monkeypatch.setenv("REPRO_JOB_TIMEOUT", "1.0")
    report = CampaignReport()
    with pytest.raises(TimeoutError):
        parallel_map(_nap, [3.0, 0.5, 0.75], workers=2, report=report)
    assert [(f.label, f.kind) for f in report.failures] \
        == [("_nap[0]", "timeout")]
    assert report.attempts == 3 and report.retries == 0
    assert report.computed == 2 and report.timeouts == 1
    assert _balanced(report)


def test_queued_jobs_do_not_time_out_waiting_for_a_worker(monkeypatch):
    # Eight 0.2 s items on two workers take 0.8 s in all, longer than
    # the 0.5 s timeout; each item alone is well inside it.
    monkeypatch.setenv("REPRO_JOB_TIMEOUT", "0.5")
    report = CampaignReport()
    assert parallel_map(_nap, [0.2] * 8, workers=2, report=report) \
        == [0.2] * 8
    assert report.timeouts == 0 and report.retries == 0
    assert report.ok()


def test_timeouts_do_not_degrade_the_pool(monkeypatch):
    # More overdue items than MAX_POOL_BREAKS.  Each timeout teardown
    # fails its overdue item and is no pool death, so the pool is never
    # traded for the timeout-free sequential path.  The quick items,
    # last in line, start only when a worker is free: their deadlines
    # time their own runs, not a wait behind the slow ones.
    monkeypatch.setenv("REPRO_JOB_TIMEOUT", "0.3")
    slow = engine.MAX_POOL_BREAKS + 1
    report = CampaignReport()
    with pytest.raises(TimeoutError):
        parallel_map(_nap, [1.5] * slow + [0.0, 0.0], workers=2,
                     report=report)
    assert report.degradations == 0 and report.pool_breaks == 0
    assert sorted((f.label, f.kind) for f in report.failures) \
        == [(f"_nap[{i}]", "timeout") for i in range(slow)]
    assert report.timeouts == slow
    assert report.computed == 2
    assert _balanced(report)


# ----------------------------------------------------------------------
# the CLI's --jobs
# ----------------------------------------------------------------------
def test_cli_jobs_flag_prints_what_sequential_prints(capsys, monkeypatch):
    monkeypatch.setenv("REPRO_JOBS", "1")  # --jobs writes it; restore it
    monkeypatch.setenv("REPRO_STORE", "0")
    outputs = []
    for jobs in ("1", "2"):
        RESULT_CACHE.clear()
        assert main(["figure5", "-n", "313", "-w", "mesa_like,gzip_like",
                     "-j", jobs]) == 0
        outputs.append(capsys.readouterr().out)
    assert "gmean SPEC" in outputs[0]
    assert outputs[0] == outputs[1]
