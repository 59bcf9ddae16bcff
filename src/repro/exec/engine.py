"""The campaign scheduler: memoize, dedupe, fan out, survive, reassemble.

``run_jobs`` is the one entry point the harness uses.  It guarantees
results identical to sequential execution: a simulation is a
deterministic function of its :class:`~repro.exec.job.SimJob` spec, so
where the result is computed (this process, a pooled worker, a retried
attempt after a crash, an earlier call via the memo, or an earlier
*run* via the disk store) cannot change it.

Each fresh fingerprint resolves through three tiers:

1. RAM memo (:data:`~repro.exec.cache.RESULT_CACHE`),
2. disk store (:mod:`~repro.exec.store`, ``REPRO_CACHE_DIR``) — batched
   load before the pool; each computed result is flushed *the moment it
   completes*, so a crashed campaign resumes from its last finished
   cell, not from zero,
3. compute (the pool, or in-process at ``jobs=1``).

Fault tolerance: jobs are submitted as individual futures, not a
``pool.map`` batch, so

* a per-job wall-clock timeout (:class:`RetryPolicy.job_timeout`,
  ``REPRO_JOB_TIMEOUT``) reaps slow cells and retries them;
* a retryable failure (an injected chaos fault, a timeout) is
  re-submitted with capped exponential backoff, at most
  :class:`RetryPolicy.max_attempts` (``REPRO_RETRIES`` + 1) times;
* a dead worker (``BrokenProcessPool`` — the OOM-killer case) costs
  only the in-flight work: completed futures keep their results, the
  pool is resurrected, and unfinished jobs are resubmitted with the
  lost attempt refunded;
* after :class:`RetryPolicy.max_pool_breaks` pool deaths the engine
  degrades gracefully to sequential in-process execution (with a fresh
  retry budget), which always terminates;
* a dead coordinator (SIGKILL, OOM) cannot shut its pool down, so each
  pool worker watches its parent and exits when it is gone;
* everything the engine absorbed is tallied in a
  :class:`~repro.exec.report.CampaignReport` — robustness is
  observable, never silent.

Failures that survive retries are *annotated* with the failing job's
fingerprint and workload, and ``disk.flush_counters()`` plus every
already-completed result's store flush happen regardless (try/finally),
so one bad cell never discards its siblings' work.

Deterministic fault injection lives in :mod:`repro.exec.faults`
(``REPRO_FAULTS`` / :func:`~repro.exec.faults.injected_faults`).

Worker count resolution, everywhere in the engine:

1. explicit ``workers=`` argument,
2. ``REPRO_JOBS`` environment variable (the CLI's ``--jobs`` sets it),
3. ``os.cpu_count()``.

``jobs=1`` (however it was resolved) runs sequentially in-process — no
pool, no pickling, no forked interpreters (but still with bounded
retries for injected faults).
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import time
from collections import deque
from concurrent.futures import (
    FIRST_COMPLETED,
    CancelledError,
    ProcessPoolExecutor,
    wait,
)
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass

from ..obs import trace as obs_trace
from .cache import RESULT_CACHE
from .faults import InjectedFault, active_injector, mark_worker_process
from .report import CampaignReport, JobFailure


def default_jobs() -> int:
    """Worker count: ``REPRO_JOBS`` if set, else ``os.cpu_count()``."""
    env = os.environ.get("REPRO_JOBS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise ValueError(
                f"REPRO_JOBS must be an integer, got {env!r}"
            ) from None
    return os.cpu_count() or 1


class RetryExhaustedError(RuntimeError):
    """A job failed every allowed attempt; carries its identity."""

    def __init__(self, label: str, fingerprint: str, attempts: int,
                 last: BaseException) -> None:
        super().__init__(
            f"job {label} (fingerprint {fingerprint[:16]}) failed "
            f"{attempts} attempts; last error: {last}")
        self.label = label
        self.fingerprint = fingerprint
        self.attempts = attempts
        self.__cause__ = last


@dataclass(frozen=True)
class RetryPolicy:
    """Fault-tolerance knobs for one campaign.

    ``max_attempts`` bounds a job's own failed executions *per regime*
    (pooled, then sequential-degraded).  Pool casualties say nothing
    about the job itself: an attempt lost to a worker death or a pool
    teardown is refunded, and degradation grants a fresh budget.
    ``job_timeout`` (seconds, pooled execution only) reaps attempts
    that overrun it; a timed-out attempt stays charged.
    Backoff before a retry is ``min(cap, base * 2**(attempt-1))``.
    ``max_pool_breaks`` worker-pool deaths are survived by resurrection
    before the engine degrades to sequential in-process execution.
    """

    max_attempts: int = 4
    job_timeout: float | None = None
    backoff_base: float = 0.02
    backoff_cap: float = 0.5
    max_pool_breaks: int = 3

    @classmethod
    def from_env(cls) -> "RetryPolicy":
        """``REPRO_RETRIES`` (extra attempts) / ``REPRO_JOB_TIMEOUT``."""
        kwargs: dict[str, object] = {}
        retries = os.environ.get("REPRO_RETRIES")
        if retries:
            try:
                kwargs["max_attempts"] = max(1, int(retries) + 1)
            except ValueError:
                raise ValueError(
                    f"REPRO_RETRIES must be an integer, got {retries!r}"
                ) from None
        timeout = os.environ.get("REPRO_JOB_TIMEOUT")
        if timeout:
            try:
                seconds = float(timeout)
            except ValueError:
                raise ValueError(
                    f"REPRO_JOB_TIMEOUT must be a number, got {timeout!r}"
                ) from None
            kwargs["job_timeout"] = seconds if seconds > 0 else None
        return cls(**kwargs)


def _backoff(policy: RetryPolicy, attempt: int) -> float:
    return min(policy.backoff_cap,
               policy.backoff_base * (2 ** max(0, attempt - 1)))


#: Seconds between a pool worker's checks that its coordinator lives.
_PARENT_POLL_SECONDS = 0.5


def _exit_with_parent(parent: int) -> None:
    """Pool-worker watchdog thread: exit once the coordinator is gone.

    A SIGKILLed coordinator cannot shut its pool down, and its workers,
    each a fork of its heap (trace cache included), would otherwise
    sleep on their call queue forever, reparented to init.
    """
    while os.getppid() == parent:
        time.sleep(_PARENT_POLL_SECONDS)
    os._exit(0)


def _worker_init(parent: int) -> None:
    """Pool workers run their own jobs sequentially (no nested pools)
    and exit with their coordinator (``parent``, its pid)."""
    os.environ["REPRO_JOBS"] = "1"
    mark_worker_process()
    threading.Thread(target=_exit_with_parent, args=(parent,),
                     name="repro-parent-watch", daemon=True).start()
    # Fork children inherit the parent's tracer; spans they emit land
    # in their own per-pid log (the tracer reopens on pid change).
    # Spawn platforms re-derive activation from the inherited env here.
    if obs_trace.refresh() is not None:
        # Fork also copied the coordinator's metrics registry; this
        # worker publishes only its own counts (see _pooled_invoke).
        from ..obs import metrics as obs_metrics

        obs_metrics.REGISTRY.clear()


def _pool(workers: int) -> ProcessPoolExecutor:
    # Prefer fork: workers inherit imported modules *and* the parent's
    # warm trace cache, so they never re-execute kernels the parent
    # already traced.  (Spawn platforms still work — jobs re-derive
    # everything from their picklable specs.)
    try:
        ctx = multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-fork platforms
        ctx = multiprocessing.get_context()
    return ProcessPoolExecutor(max_workers=workers, mp_context=ctx,
                               initializer=_worker_init,
                               initargs=(os.getpid(),))


def _run_job(job):
    """Module-level trampoline so the pool can pickle it."""
    return job.run()


def _invoke(fn, arg, key: str, attempt: int, delay: float):
    """One execution attempt, on whichever process runs it.

    ``delay`` implements retry backoff *inside* the worker, so the
    parent's scheduling loop never blocks on it.  The active fault
    injector (env / override, inherited through fork) gets first shot.
    """
    if delay > 0:
        time.sleep(delay)
    injector = active_injector()
    if injector is not None:
        injector.on_job_attempt(key, attempt)
    tracer = obs_trace.TRACER
    if tracer is None:
        return fn(arg)
    with tracer.span("attempt", fp=key[:16], attempt=attempt):
        return fn(arg)


def _pooled_invoke(fn, arg, key: str, attempt: int, delay: float):
    """:func:`_invoke` in a pool worker, then publish its metrics.

    A traced worker's snapshot is cumulative for its pid and the
    exporter keeps the last one per pid, so emitting after every
    attempt loses nothing when the pool is later torn down.
    """
    try:
        return _invoke(fn, arg, key, attempt, delay)
    finally:
        tracer = obs_trace.TRACER
        if tracer is not None:
            from ..obs import metrics as obs_metrics

            tracer.emit_metrics(obs_metrics.REGISTRY.snapshot(),
                                scope="worker")


class _Task:
    """One schedulable unit: a SimJob or a map item."""

    __slots__ = ("index", "fn", "arg", "key", "label", "attempts", "seq")

    def __init__(self, index: int, fn, arg, key: str, label: str) -> None:
        self.index = index
        self.fn = fn
        self.arg = arg
        self.key = key        # fault-roll / fingerprint identity
        self.label = label    # human identity for error messages
        self.attempts = 0     # executions started in the current regime
        self.seq = 0          # executions started ever (fault re-roll index)


def _annotate(exc: BaseException, task: _Task) -> BaseException:
    """Attach the job's identity to an escaping exception (once)."""
    if not getattr(exc, "_repro_noted", False):
        try:
            exc.add_note(f"campaign job failed: {task.label} "
                         f"(fingerprint {task.key[:16]})")
            exc._repro_noted = True
        except Exception:  # pragma: no cover - frozen/odd exception types
            pass
    return exc


def _fail(task: _Task, exc: BaseException, kind: str,
          failures: dict[int, BaseException],
          report: CampaignReport) -> None:
    failures[task.index] = _annotate(exc, task)
    report.failures.append(JobFailure(
        label=task.label, fingerprint=task.key, kind=kind, error=str(exc)))


def _retry_or_fail(task: _Task, exc: BaseException, policy: RetryPolicy,
                   failures: dict[int, BaseException],
                   report: CampaignReport, resubmit) -> None:
    """Retryable failure: resubmit within budget, else record exhaustion."""
    if task.attempts >= policy.max_attempts:
        _fail(task, RetryExhaustedError(task.label, task.key,
                                        task.attempts, exc),
              "retries-exhausted", failures, report)
    else:
        report.retries += 1
        resubmit(task)


def _run_tasks_sequential(tasks, policy: RetryPolicy,
                          report: CampaignReport, record,
                          failures: dict[int, BaseException],
                          fresh_budget: bool = False) -> None:
    """In-process execution with bounded retries (the jobs=1 path, and
    the graceful-degradation target when pools keep dying)."""
    for task in tasks:
        if fresh_budget:
            task.attempts = 0
        with obs_trace.span("job", fp=task.key[:16], label=task.label):
            _run_one_sequential(task, policy, report, record, failures)


def _run_one_sequential(task, policy: RetryPolicy, report: CampaignReport,
                        record, failures: dict[int, BaseException]) -> None:
    """One task's bounded in-process retry loop (the ``job`` span body)."""
    while True:
        task.attempts += 1
        task.seq += 1
        report.attempts += 1
        try:
            result = _invoke(task.fn, task.arg, task.key, task.seq, 0.0)
        except InjectedFault as exc:
            if task.attempts >= policy.max_attempts:
                _fail(task, RetryExhaustedError(task.label, task.key,
                                                task.attempts, exc),
                      "retries-exhausted", failures, report)
                return
            report.retries += 1
            time.sleep(_backoff(policy, task.attempts))
        except (KeyboardInterrupt, SystemExit):
            # An interrupted cell is not a failed cell: let the
            # interrupt surface (completed cells are already
            # flushed) so a rerun resumes it instead of reporting
            # a phantom job failure.
            raise
        except BaseException as exc:
            _fail(task, exc, "exception", failures, report)
            return
        else:
            record(task, result)
            return


def _run_tasks_pooled(tasks, workers: int, policy: RetryPolicy,
                      report: CampaignReport, record,
                      failures: dict[int, BaseException]) -> None:
    """Per-job future submission with timeouts, retries, resurrection.

    Completed futures keep their results across a pool death; after
    ``policy.max_pool_breaks`` deaths the remaining work degrades to
    sequential in-process execution (fresh retry budget — a pool
    casualty is evidence about the pool, not the job).
    """
    queue: deque[_Task] = deque(tasks)
    breaks = 0
    while queue:
        if breaks >= policy.max_pool_breaks:
            report.degradations += 1
            _run_tasks_sequential(list(queue), policy, report, record,
                                  failures, fresh_budget=True)
            return
        queue, broke = _one_pool_round(queue, workers, policy, report,
                                       record, failures)
        if broke:
            breaks += 1
            time.sleep(_backoff(policy, breaks))


def _one_pool_round(queue: deque, workers: int, policy: RetryPolicy,
                    report: CampaignReport, record,
                    failures: dict[int, BaseException]):
    """One pool lifetime; returns (requeue, broke).

    Runs until the queue drains or the pool must be torn down: a worker
    death (``BrokenProcessPool`` fails every pending future at once) or
    a per-job timeout (a running future cannot be cancelled, so the
    whole pool is abandoned; ``shutdown(wait=False)`` leaves the
    stragglers to finish dying on their own).
    """
    requeue: deque[_Task] = deque()
    pool = _pool(min(workers, len(queue)))
    pending: dict = {}
    broke = False

    def casualty(task: _Task) -> None:
        # Lost to the pool, not to its own fault: requeue it with the
        # attempt refunded (`seq` still advances on resubmission, so
        # injected faults re-roll).
        task.attempts -= 1
        requeue.append(task)

    def submit(task: _Task, delay: float = 0.0) -> None:
        nonlocal broke
        task.attempts += 1
        task.seq += 1
        report.attempts += 1
        deadline = (time.monotonic() + policy.job_timeout
                    if policy.job_timeout else None)
        try:
            future = pool.submit(_pooled_invoke, task.fn, task.arg,
                                 task.key, task.seq, delay)
        except BrokenProcessPool:
            # The pool died between completions; the task is innocent.
            if not broke:
                broke = True
                report.pool_breaks += 1
            casualty(task)
            return
        pending[future] = (task, deadline)

    def resubmit(task: _Task) -> None:
        if broke:
            requeue.append(task)
        else:
            submit(task, delay=_backoff(policy, task.attempts))

    try:
        for task in queue:
            submit(task)
        while pending and not broke:
            timeout = None
            if policy.job_timeout:
                deadlines = [d for (_t, d) in pending.values()
                             if d is not None]
                if deadlines:
                    timeout = max(0.0, min(deadlines) - time.monotonic())
            done, _ = wait(list(pending), timeout=timeout,
                           return_when=FIRST_COMPLETED)
            for future in done:
                task, _deadline = pending.pop(future)
                try:
                    result = future.result()
                except BrokenProcessPool:
                    # The casualty and every sibling retry on a fresh
                    # pool; completed futures in `done` keep their
                    # results below.  Counted once per pool lifetime.
                    if not broke:
                        broke = True
                        report.pool_breaks += 1
                    casualty(task)
                except InjectedFault as exc:
                    _retry_or_fail(task, exc, policy, failures, report,
                                   resubmit)
                except CancelledError:  # pragma: no cover - defensive
                    casualty(task)
                except (KeyboardInterrupt, SystemExit):
                    raise  # interrupted, not failed — surface it
                except BaseException as exc:
                    _fail(task, exc, "exception", failures, report)
                else:
                    record(task, result)
            if policy.job_timeout and not broke:
                now = time.monotonic()
                overdue = [f for f, (_t, d) in pending.items()
                           if d is not None and d <= now]
                if overdue:
                    broke = True  # cannot cancel running futures
                    for future in overdue:
                        task, _deadline = pending.pop(future)
                        report.timeouts += 1
                        _retry_or_fail(task, TimeoutError(
                            f"attempt exceeded {policy.job_timeout}s"),
                            policy, failures, report, resubmit)
        # Drain whatever the teardown left behind: futures that did
        # finish keep their results; the rest are innocent casualties.
        for future, (task, _deadline) in list(pending.items()):
            if future.done() and not future.cancelled():
                try:
                    record(task, future.result())
                    continue
                except InjectedFault as exc:
                    _retry_or_fail(task, exc, policy, failures, report,
                                   lambda t: requeue.append(t))
                    continue
                except BrokenProcessPool:
                    pass
                except (KeyboardInterrupt, SystemExit):
                    raise  # interrupted, not failed — surface it
                except BaseException as exc:
                    _fail(task, exc, "exception", failures, report)
                    continue
            casualty(task)
    finally:
        pool.shutdown(wait=not broke, cancel_futures=True)
    return requeue, broke


def _job_label(job) -> str:
    workload = getattr(job.workload, "name", job.workload)
    return f"{job.model} on {workload}"


def _prewarm_traces(jobs) -> dict:
    """Generate each distinct trace once, in the parent, before forking.

    Chunking splits one workload's jobs across workers; without this,
    every such worker would re-run the functional executor for the same
    kernel.  Warming the parent's trace cache first means fork hands
    every worker the already-built trace — trace generation stays
    exactly-once per (workload, instructions) across the whole campaign.

    A workload whose trace generation *raises* must not abort the
    campaign: its exception is returned (keyed by trace key) so the
    engine fails only that workload's jobs and runs everything else.
    """
    from .cache import TRACE_CACHE

    failed: dict = {}
    for key in {(job.workload, job.config.instructions) for job in jobs}:
        workload, instructions = key
        with obs_trace.span("workload",
                            workload=str(getattr(workload, "name", workload)),
                            instructions=instructions):
            try:
                TRACE_CACHE.get(*key)
            except Exception as exc:
                failed[key] = exc
    return failed


def _resolve_cached(jobs, memo: bool, disk,
                    report: CampaignReport, results: list):
    """The memo and disk tiers, ahead of any compute.

    Fills ``results`` in place for every cache hit and returns
    ``(positions, fresh)``: the index positions of each fresh
    fingerprint and the deduplicated jobs still needing compute.
    """
    positions: dict[str, list[int]] = {}
    fresh: list = []
    for i, job in enumerate(jobs):
        key = job.fingerprint
        if memo:
            cached = RESULT_CACHE.get(key)
            if cached is not None:
                results[i] = cached
                report.memo_hits += 1
                continue
        if key in positions:
            positions[key].append(i)
        else:
            positions[key] = [i]
            fresh.append(job)
    if fresh and disk is not None:
        # Batched disk tier: one lookup per fresh fingerprint, before
        # any pool spins up.  Hits feed the RAM memo so the rest of the
        # process never touches the disk for them again.
        loaded = disk.get_results([job.fingerprint for job in fresh])
        if loaded:
            missing = []
            for job in fresh:
                key = job.fingerprint
                result = loaded.get(key)
                if result is None:
                    missing.append(job)
                    continue
                report.store_hits += 1
                if memo:
                    RESULT_CACHE.put(key, result)
                for i in positions[key]:
                    results[i] = result
            fresh = missing
    return positions, fresh


def run_jobs(jobs, *, workers: int | None = None, memo: bool = True,
             store=None, report: CampaignReport | None = None,
             strict: bool = True,
             policy: RetryPolicy | None = None) -> list:
    """Execute ``jobs`` (SimJobs); results in input order.

    Fingerprint-identical jobs execute once, whether the duplicate is in
    this batch, in the :data:`~repro.exec.cache.RESULT_CACHE` from an
    earlier campaign, or in the on-disk store from an earlier *process*.
    ``memo=False`` bypasses both cross-call tiers entirely (benchmarks
    measuring raw throughput use it) but still dedupes within the batch.

    ``store`` selects the disk tier: ``None`` resolves it from the
    environment (``REPRO_STORE`` / ``REPRO_CACHE_DIR``; off when
    ``memo=False``), ``False`` disables it, and an explicit
    :class:`~repro.exec.store.ResultStore` forces one (benchmarks pass
    hermetic temp stores this way, with any ``memo`` setting).  Each
    computed result is flushed to the store the moment it completes, so
    a killed campaign resumed in a fresh process replays only the cells
    that had not yet finished.

    ``report`` (a :class:`~repro.exec.report.CampaignReport`) collects
    attempts/retries/timeouts/pool-breaks/degradations/store-errors;
    ``policy`` overrides the env-resolved :class:`RetryPolicy`.

    With ``strict=True`` (default) a permanently failed job re-raises
    its exception — annotated with fingerprint and workload — *after*
    all other jobs have completed and flushed.  ``strict=False``
    instead records failures in the report and leaves ``None`` in the
    failed slots, so one bad workload cannot abort a campaign.
    """
    from .store import resolve_store

    # One env read per campaign entry: hot paths below only test the
    # module-level TRACER global (the zero-overhead contract).
    obs_trace.refresh()
    jobs = list(jobs)
    workers = workers if workers is not None else default_jobs()
    policy = policy if policy is not None else RetryPolicy.from_env()
    report = report if report is not None else CampaignReport()
    disk = None if (store is None and not memo) else resolve_store(store)
    report.jobs += len(jobs)
    results: list = [None] * len(jobs)
    # Entered/exited by hand so the span covers the whole campaign —
    # cache resolution through the final counter flush — without
    # re-indenting the scheduler.  A no-op singleton when tracing is off.
    campaign_span = obs_trace.span(
        "campaign", jobs=len(jobs), workers=workers,
        mode="pool" if workers > 1 else "sequential")
    campaign_span.__enter__()
    # One report may span several campaigns (sweeps accumulate): mirror
    # only this campaign's delta into the metrics registry at the end.
    tallies_before = (report.tallies() if obs_trace.TRACER is not None
                      else None)
    positions, fresh = _resolve_cached(jobs, memo, disk, report, results)

    failures: dict[int, BaseException] = {}
    corrupt_before = disk.corrupt if disk is not None else 0
    store_unwritable = False

    def record(task: _Task, result) -> None:
        # Incremental durability: the cell is memoized and flushed to
        # disk the moment it completes — a crash after this point can
        # never cost this simulation again.
        nonlocal store_unwritable
        key = task.key
        report.computed += 1
        if memo:
            RESULT_CACHE.put(key, result)
        if disk is not None and not store_unwritable:
            if not disk.put_result(key, result):
                store_unwritable = True  # read-only fs: stop trying
                report.store_errors += 1
        for i in positions[key]:
            results[i] = result

    try:
        if fresh:
            tasks = [_Task(index=i, fn=_run_job, arg=job,
                           key=job.fingerprint, label=_job_label(job))
                     for i, job in enumerate(fresh)]
            if workers > 1 and len(fresh) > 1:
                trace_failures = _prewarm_traces(fresh)
                runnable = []
                for task in tasks:
                    trace_key = (task.arg.workload,
                                 task.arg.config.instructions)
                    if trace_key in trace_failures:
                        _fail(task, trace_failures[trace_key], "trace",
                              failures, report)
                    else:
                        runnable.append(task)
                if runnable:
                    _run_tasks_pooled(runnable,
                                      min(workers, len(runnable)),
                                      policy, report, record, failures)
            else:
                _run_tasks_sequential(tasks, policy, report, record,
                                      failures)
            if failures and strict:
                raise failures[min(failures)]
    finally:
        if disk is not None:
            report.store_errors += disk.corrupt - corrupt_before
            disk.flush_counters()
        tracer = obs_trace.TRACER
        if tracer is not None:
            from ..obs import metrics as obs_metrics

            tallies = report.tallies()
            if tallies_before is not None:
                tallies = {name: value - tallies_before.get(name, 0)
                           for name, value in tallies.items()}
            obs_metrics.REGISTRY.count_into("campaign", tallies)
            tracer.emit_metrics(obs_metrics.REGISTRY.snapshot(),
                                scope="campaign")
        campaign_span.__exit__(None, None, None)
    return results


def parallel_map(fn, items, *, workers: int | None = None,
                 report: CampaignReport | None = None,
                 policy: RetryPolicy | None = None) -> list:
    """Ordered ``map(fn, items)``, pooled when workers > 1.

    For work that is not a plain SimJob.  ``fn`` must be a module-level
    callable and ``items`` picklable; there is no memo and no store,
    but the fault-tolerant scheduler (retries, pool resurrection,
    sequential degradation) is the same one ``run_jobs`` uses — ``fn``
    must therefore be deterministic.
    """
    items = list(items)
    workers = workers if workers is not None else default_jobs()
    policy = policy if policy is not None else RetryPolicy.from_env()
    report = report if report is not None else CampaignReport()
    report.jobs += len(items)
    name = getattr(fn, "__name__", "fn")
    tasks = [_Task(index=i, fn=fn, arg=item, key=f"{name}:{i}",
                   label=f"{name}[{i}]")
             for i, item in enumerate(items)]
    results: dict[int, object] = {}
    failures: dict[int, BaseException] = {}

    def record(task: _Task, result) -> None:
        report.computed += 1
        results[task.index] = result

    if workers > 1 and len(items) > 1:
        _run_tasks_pooled(tasks, min(workers, len(items)), policy,
                          report, record, failures)
    else:
        _run_tasks_sequential(tasks, policy, report, record, failures)
    if failures:
        raise failures[min(failures)]
    return [results[i] for i in range(len(items))]
