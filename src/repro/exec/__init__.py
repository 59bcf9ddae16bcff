"""Campaign execution engine.

Every figure, table, and sweep in the reproduction is a *campaign*: a
grid of independent simulations (machine model x kernel x configuration).
This package turns that grid into explicit :class:`SimJob` specs and
executes them through one engine that

* **fingerprints** each job deterministically (:mod:`.fingerprint`), so
  identical simulations are recognised across sweeps and figures;
* **memoizes** in-process (:mod:`.cache`): functional traces by
  ``(kernel, instructions)`` and :class:`~repro.engine.result.SimResult`
  by job fingerprint — the in-order baseline of a sweep runs once, not
  once per sweep value;
* **persists** results across processes (:mod:`.store`): an on-disk,
  content-addressed store of SimResults, and nothing else, under
  ``REPRO_CACHE_DIR`` (toggle with ``REPRO_STORE`` /
  ``--store``/``--no-store``) makes every campaign incremental — a
  repeated figure grid in a fresh process hits the store for every
  cell it has seen before;
* **parallelises** across a process pool (:mod:`.engine`), controlled by
  ``REPRO_JOBS`` / ``--jobs`` with a sequential in-process fallback at
  ``jobs=1``, and guarantees results identical to sequential execution
  (simulations are deterministic functions of their job spec) — the one
  parallel path;
* **survives faults** (:mod:`.engine` + :mod:`.faults`): a failed job
  fails once and alone (a deterministic job would fail again, so
  nothing retries it), a per-job timeout (``REPRO_JOB_TIMEOUT``) fails
  only the overdue cell, jobs lost with a dead worker re-run on a
  resurrected pool with surviving results kept, graceful degradation
  to sequential execution, incremental store flush (crash-resume for
  free), pool workers that exit with a killed coordinator,
  corrupt-record quarantine, and a deterministic chaos harness
  (``REPRO_FAULTS``) that proves all of it — with every incident
  tallied in a :class:`~repro.exec.report.CampaignReport`.
"""

from .cache import RESULT_CACHE, TRACE_CACHE, ResultCache, TraceCache
from .engine import (
    default_jobs,
    job_timeout,
    parallel_map,
    run_jobs,
)
from .faults import (
    FaultInjector,
    FaultPlan,
    active_injector,
    injected_faults,
    set_fault_plan,
)
from .fingerprint import canonical, fingerprint
from .job import SimJob
from .report import CampaignReport, JobFailure
from .store import (
    ENGINE_VERSION,
    STORE_SCHEMA,
    ResultStore,
    default_store,
    resolve_store,
    store_enabled,
)

__all__ = [
    "SimJob",
    "run_jobs",
    "parallel_map",
    "default_jobs",
    "job_timeout",
    "CampaignReport",
    "JobFailure",
    "FaultPlan",
    "FaultInjector",
    "injected_faults",
    "set_fault_plan",
    "active_injector",
    "fingerprint",
    "canonical",
    "TraceCache",
    "ResultCache",
    "TRACE_CACHE",
    "RESULT_CACHE",
    "ResultStore",
    "default_store",
    "resolve_store",
    "store_enabled",
    "STORE_SCHEMA",
    "ENGINE_VERSION",
]
