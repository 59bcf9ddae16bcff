"""The campaign scheduler: memoize, dedupe, fan out, survive, reassemble.

``run_jobs`` is the one entry point the harness uses.  It guarantees
results identical to sequential execution: a simulation is a
deterministic function of its :class:`~repro.exec.job.SimJob` spec, so
where the result is computed (this process, a pooled worker, a re-run
after its worker died, an earlier call via the memo, or an earlier
*run* via the disk store) cannot change it.

Each fresh fingerprint resolves through three tiers:

1. RAM memo (:data:`~repro.exec.cache.RESULT_CACHE`),
2. disk store (:mod:`~repro.exec.store`, ``REPRO_CACHE_DIR``) — one
   lookup per fingerprint before the pool; each computed result is
   flushed *the moment it completes*, so a crashed campaign resumes
   from its last finished cell, not from zero,
3. compute (the pool, or in-process at ``jobs=1``).

Determinism also means a job that raised would raise again, so a job
attempt ends one of three ways:

* it completes;
* it fails for good: its own exception, or the per-job wall-clock
  timeout (:func:`job_timeout`, ``REPRO_JOB_TIMEOUT``, pooled runs
  only).  With a timeout set, at most one job per worker is in flight,
  so the timeout times the attempt itself, never a wait in the pool's
  queue.  An overdue attempt stops submission until its siblings
  finish or pass their own deadlines; then its pool is torn down and
  the workers killed, so it costs no sibling and stops running;
* it is lost with its worker and re-runs for free: a dead worker
  (``BrokenProcessPool`` — the OOM-killer case) costs only the
  in-flight work, at most one job more than there are workers.
  Completed futures keep their results, the pool is resurrected, and
  the casualties re-run on it (counted in ``CampaignReport.retries``).

After :data:`MAX_POOL_BREAKS` pool deaths the engine degrades to
sequential in-process execution, which always terminates.  A dead
coordinator (SIGKILL, OOM) cannot shut its pool down, so each pool
worker watches its parent and exits when it is gone.  Everything the
engine absorbed is tallied in a
:class:`~repro.exec.report.CampaignReport` — robustness is observable,
never silent.

A failed job's exception is *annotated* with its fingerprint and
workload, and surfaces only after every sibling has run and flushed its
result to the store, so one bad cell never discards its siblings'
work; rerunning the command recomputes only the failed cells.

Deterministic fault injection lives in :mod:`repro.exec.faults`
(``REPRO_FAULTS`` / :func:`~repro.exec.faults.injected_faults`).

Worker count resolution, everywhere in the engine:

1. explicit ``workers=`` argument,
2. ``REPRO_JOBS`` environment variable (the CLI's ``--jobs`` sets it),
3. ``os.cpu_count()``.

``jobs=1`` (however it was resolved) runs sequentially in-process — no
pool, no pickling, no forked interpreters.
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

from ..obs import trace as obs_trace
from .cache import RESULT_CACHE
from .faults import active_injector, mark_worker_process
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


def job_timeout() -> float | None:
    """Per-job wall-clock limit for pooled attempts, in seconds:
    ``REPRO_JOB_TIMEOUT`` if set and positive, else ``None`` (off)."""
    env = os.environ.get("REPRO_JOB_TIMEOUT")
    if not env:
        return None
    try:
        seconds = float(env)
    except ValueError:
        raise ValueError(
            f"REPRO_JOB_TIMEOUT must be a number, got {env!r}"
        ) from None
    return seconds if seconds > 0 else None


#: Worker-pool deaths survived by resurrection before the engine
#: degrades to sequential in-process execution.
MAX_POOL_BREAKS = 3


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


def _invoke(fn, arg, key: str, attempt: int):
    """One execution attempt, on whichever process runs it.

    The active fault injector (env / override, inherited through fork)
    gets first shot.
    """
    injector = active_injector()
    if injector is not None:
        injector.on_job_attempt(key, attempt)
    tracer = obs_trace.TRACER
    if tracer is None:
        return fn(arg)
    with tracer.span("attempt", fp=key[:16], attempt=attempt):
        return fn(arg)


def _pooled_invoke(fn, arg, key: str, attempt: int):
    """:func:`_invoke` in a pool worker, then publish its metrics.

    A traced worker's snapshot is cumulative for its pid and the
    exporter keeps the last one per pid, so emitting after every
    attempt loses nothing when the pool is later torn down.
    """
    try:
        return _invoke(fn, arg, key, attempt)
    finally:
        tracer = obs_trace.TRACER
        if tracer is not None:
            from ..obs import metrics as obs_metrics

            tracer.emit_metrics(obs_metrics.REGISTRY.snapshot(),
                                scope="worker")


class _Task:
    """One schedulable unit: a SimJob or a map item."""

    __slots__ = ("index", "fn", "arg", "key", "label", "seq")

    def __init__(self, index: int, fn, arg, key: str, label: str) -> None:
        self.index = index
        self.fn = fn
        self.arg = arg
        self.key = key        # fault-roll / fingerprint identity
        self.label = label    # human identity for error messages
        self.seq = 0          # executions started (fault re-roll index)


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


def _run_tasks_sequential(tasks, report: CampaignReport, record,
                          failures: dict[int, BaseException]) -> None:
    """In-process execution, one attempt per task (the jobs=1 path, and
    the graceful-degradation target when pools keep dying)."""
    for task in tasks:
        with obs_trace.span("job", fp=task.key[:16], label=task.label):
            task.seq += 1
            report.attempts += 1
            try:
                result = _invoke(task.fn, task.arg, task.key, task.seq)
            except (KeyboardInterrupt, SystemExit):
                # An interrupted cell is not a failed cell: let the
                # interrupt surface (completed cells are already
                # flushed) so a rerun resumes it instead of reporting
                # a phantom job failure.
                raise
            except BaseException as exc:
                _fail(task, exc, "exception", failures, report)
            else:
                record(task, result)


def _run_tasks_pooled(tasks, workers: int, timeout: float | None,
                      report: CampaignReport, record,
                      failures: dict[int, BaseException]) -> None:
    """Per-job futures on a pool that is resurrected after each death.

    Completed futures keep their results across a pool death; after
    :data:`MAX_POOL_BREAKS` deaths the remaining work degrades to
    sequential in-process execution.  A teardown that reaps an overdue
    job is not a death: it fails that job, so the queue still shrinks.
    """
    queue: deque[_Task] = deque(tasks)
    breaks = 0
    while queue:
        if breaks >= MAX_POOL_BREAKS:
            report.degradations += 1
            _run_tasks_sequential(queue, report, record, failures)
            return
        breaks += _one_pool_round(queue, workers, timeout, report, record,
                                  failures)


def _kill_workers(pool: ProcessPoolExecutor) -> None:
    """Shut ``pool`` down without waiting and SIGKILL its workers.

    ``shutdown(wait=False)`` alone abandons a worker that is still
    running an overdue attempt, and the attempt runs on to its end (a
    livelocked cell: until its ``max_cycles`` guard fires).  Python
    3.11 has no public call for this (3.14 adds ``kill_workers()``), so
    the worker table is read from the executor's private ``_processes``
    before ``shutdown`` drops it.
    """
    workers = list((pool._processes or {}).values())
    pool.shutdown(wait=False, cancel_futures=True)
    for process in workers:
        try:
            process.kill()
        except (OSError, ValueError):  # already gone
            pass


def _one_pool_round(queue: deque, workers: int, timeout: float | None,
                    report: CampaignReport, record,
                    failures: dict[int, BaseException]) -> bool:
    """One pool lifetime over ``queue``; returns whether the pool died.

    The round ends when the queue drains, when a worker dies
    (``BrokenProcessPool`` fails every pending future at once, and those
    jobs go back to the front of ``queue`` for the next pool), or after
    an attempt is overdue.  A running future cannot be cancelled, so an
    overdue attempt fails its job and stops submission; the round's
    other attempts still finish or pass their own deadlines, and then
    the pool is torn down once and its workers are killed.
    """
    size = min(workers, len(queue))
    pool = _pool(size)
    # With a timeout, one attempt per worker is in flight, so each
    # starts as it is submitted and its deadline times the attempt, not
    # a wait in the pool's queue.  Without one, one more job waits in
    # the pool's queue so no worker idles between completions, and a
    # worker death loses at most that job beside the running ones.
    in_flight = size if timeout else size + 1
    pending: dict = {}  # future -> (task, deadline or None)
    lost: list[_Task] = []
    died = overdue = False
    torn_down = True

    def casualty(task: _Task) -> None:
        # Lost with the pool, not by its own fault: it re-runs on the
        # next one (`seq` advances, so injected faults re-roll).
        report.retries += 1
        lost.append(task)

    def pool_died() -> None:
        nonlocal died
        if not died:  # counted once per pool lifetime
            died = True
            report.pool_breaks += 1

    def settle(future, task: _Task) -> None:
        try:
            result = future.result()
        except BrokenProcessPool:
            pool_died()
            casualty(task)
        except CancelledError:  # pragma: no cover - defensive
            casualty(task)
        except (KeyboardInterrupt, SystemExit):
            raise  # interrupted, not failed — surface it
        except BaseException as exc:
            _fail(task, exc, "exception", failures, report)
        else:
            record(task, result)

    try:
        while not died:
            while queue and len(pending) < in_flight and not (died or overdue):
                task = queue.popleft()
                task.seq += 1
                report.attempts += 1
                try:
                    future = pool.submit(_pooled_invoke, task.fn, task.arg,
                                         task.key, task.seq)
                except BrokenProcessPool:
                    # The pool died between completions.
                    pool_died()
                    casualty(task)
                else:
                    pending[future] = (task, time.monotonic() + timeout
                                       if timeout else None)
            if not pending:
                break
            wait_for = None
            if timeout:
                wait_for = max(0.0, min(d for _t, d in pending.values())
                               - time.monotonic())
            done, _ = wait(list(pending), timeout=wait_for,
                           return_when=FIRST_COMPLETED)
            for future in done:
                settle(future, pending.pop(future)[0])
            if timeout and not died:
                now = time.monotonic()
                for future in [f for f, (_t, d) in pending.items()
                               if d <= now]:
                    task, _deadline = pending.pop(future)
                    overdue = True
                    report.timeouts += 1
                    _fail(task, TimeoutError(
                        f"attempt exceeded {timeout}s"), "timeout",
                        failures, report)
        # Only a dead pool leaves futures pending: those that finished
        # first keep their results, the rest are lost with it.
        for future, (task, _deadline) in pending.items():
            if future.done() and not future.cancelled():
                settle(future, task)
            else:
                casualty(task)
        torn_down = died or overdue
    finally:
        if torn_down:  # a death, an overdue attempt, or an interrupt
            _kill_workers(pool)
        else:
            pool.shutdown()
    queue.extendleft(reversed(lost))
    return died


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
    if disk is not None:
        # Disk tier: one lookup per fresh fingerprint, before any pool
        # spins up.  Hits feed the RAM memo so the rest of the process
        # never touches the disk for them again.
        missing = []
        for job in fresh:
            key = job.fingerprint
            result = disk.get_result(key)
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
             strict: bool = True) -> list:
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
    attempts/retries/timeouts/pool-breaks/degradations/store-errors.

    With ``strict=True`` (default) a failed job re-raises
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
    timeout = job_timeout()
    report = report if report is not None else CampaignReport()
    disk = None if (store is None and not memo) else resolve_store(store)
    report.jobs += len(jobs)
    results: list = [None] * len(jobs)
    # Entered/exited by hand so the span covers the whole campaign —
    # cache resolution through the final metrics emission — without
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
                                      timeout, report, record, failures)
            else:
                _run_tasks_sequential(tasks, report, record, failures)
            if failures and strict:
                raise failures[min(failures)]
    finally:
        if disk is not None:
            report.store_errors += disk.corrupt - corrupt_before
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
                 report: CampaignReport | None = None) -> list:
    """Ordered ``map(fn, items)``, pooled when workers > 1.

    For work that is not a plain SimJob.  ``fn`` must be a module-level
    callable and ``items`` picklable; there is no memo and no store,
    but the fault-tolerant scheduler (per-job timeout, pool
    resurrection, sequential degradation) is the same one ``run_jobs``
    uses — ``fn`` must therefore be deterministic.
    """
    items = list(items)
    workers = workers if workers is not None else default_jobs()
    timeout = job_timeout()
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
        _run_tasks_pooled(tasks, min(workers, len(items)), timeout,
                          report, record, failures)
    else:
        _run_tasks_sequential(tasks, report, record, failures)
    if failures:
        raise failures[min(failures)]
    return [results[i] for i in range(len(items))]
