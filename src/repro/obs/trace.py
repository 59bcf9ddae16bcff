"""Structured span tracing: append-only JSONL event logs per process.

The tracer answers "where did the wall-clock go" for a campaign that
spans two execution layers (the in-process engine and its process
pool).  Every instrumented site opens a *span* — a named interval with
arbitrary ``args`` — or drops an instant *event*.  Spans nest
implicitly: Chrome's trace viewer (and :mod:`repro.obs.export`)
reconstructs the hierarchy from timestamp containment per (pid, tid)
track, so emitting a span costs one appended line and no bookkeeping.

Activation and the zero-overhead contract
-----------------------------------------
Tracing is off unless ``REPRO_TRACE`` is set (the CLI's ``--trace``
sets it).  The hot-path guard is a single module-level check:
``TRACER is None`` — :func:`span`/:func:`event` return a shared no-op
immediately, and engine-level probes skip collection entirely.  The
observation-only law (pinned in tier-1): tracing on vs. off is
byte-identical in every result and stat, and the off cost is ~zero
(the repo's benchmark runs with tracing off, so that cost is inside
every ``sim_kips`` it reports).

Durability: one file per process under ``<store>/obs/``
(``REPRO_OBS_DIR`` overrides), append-only, one JSON object per line,
flushed per event — a SIGKILL can tear at most the final line, and the
reader (:func:`iter_events`) skips torn lines.  Forked pool workers
inherit the parent's tracer; the first emit in a new pid reopens a
fresh per-process file, so concurrent writers never interleave.
"""

from __future__ import annotations

import json
import os
import threading
import time

#: Span/event log schema version (bump on incompatible record changes).
OBS_SCHEMA = 1


def default_obs_dir() -> str:
    """``REPRO_OBS_DIR`` if set, else ``<store root>/obs``."""
    env = os.environ.get("REPRO_OBS_DIR")
    if env:
        return env
    from ..exec.store import cache_dir

    return os.path.join(cache_dir(), "obs")


class _NoopSpan:
    """Shared do-nothing context manager for the tracing-off path."""

    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NOOP = _NoopSpan()


class _Span:
    """One open interval; emits a complete ("X") record on exit."""

    __slots__ = ("_tracer", "name", "args", "_wall_us", "_perf")

    def __init__(self, tracer: "Tracer", name: str, args: dict) -> None:
        self._tracer = tracer
        self.name = name
        self.args = args

    def __enter__(self):
        self._wall_us = time.time_ns() // 1_000
        self._perf = time.perf_counter_ns()
        return self

    def __exit__(self, exc_type, exc, tb):
        dur_us = (time.perf_counter_ns() - self._perf) // 1_000
        if exc_type is not None:
            self.args = dict(self.args)
            self.args["error"] = exc_type.__name__
        self._tracer.emit({"ph": "X", "name": self.name,
                           "ts": self._wall_us, "dur": dur_us,
                           "args": self.args})
        return False


class Tracer:
    """Per-process append-only JSONL span writer.

    One :class:`Tracer` serves a whole process tree: fork children
    inherit it, and :meth:`emit` reopens a fresh ``<label>-<pid>.jsonl``
    whenever the pid changed since the last write.  Writes are one
    ``write()`` + ``flush()`` per record, so a crash tears at most one.
    """

    def __init__(self, root: str, label: str = "proc") -> None:
        self.root = root
        self.label = label
        self._lock = threading.Lock()
        self._pid: int | None = None
        self._handle = None
        self.path: str | None = None

    # -- plumbing ------------------------------------------------------
    def _reopen(self, pid: int) -> None:
        if self._handle is not None:
            try:
                self._handle.close()
            except OSError:  # pragma: no cover - closing is best-effort
                pass
        os.makedirs(self.root, exist_ok=True)
        self.path = os.path.join(self.root, f"{self.label}-{pid}.jsonl")
        self._handle = open(self.path, "a", encoding="utf-8")
        self._pid = pid
        # Track identity first, so the exporter can name the track even
        # if the process dies mid-span.
        self._write({"ph": "M", "name": "process_name", "pid": pid,
                     "args": {"name": f"{self.label}-{pid}"},
                     "schema": OBS_SCHEMA})

    def _write(self, record: dict) -> None:
        self._handle.write(json.dumps(record, separators=(",", ":"),
                                      default=str) + "\n")
        self._handle.flush()

    def emit(self, record: dict) -> None:
        """Append one event record (pid/tid stamped here)."""
        pid = os.getpid()
        with self._lock:
            try:
                if pid != self._pid:
                    self._reopen(pid)
                record.setdefault("pid", pid)
                record.setdefault("tid", threading.get_native_id())
                self._write(record)
            except OSError:
                # Observability must never fail the campaign: a full or
                # read-only disk silently drops the event.
                pass

    # -- recording API -------------------------------------------------
    def span(self, name: str, **args) -> _Span:
        return _Span(self, name, args)

    def event(self, name: str, **args) -> None:
        self.emit({"ph": "i", "name": name,
                   "ts": time.time_ns() // 1_000, "args": args})

    def emit_metrics(self, snapshot: dict, scope: str = "process") -> None:
        """Append a metrics-registry snapshot (skipped by the Chrome
        exporter's span stream, merged by ``repro obs export``)."""
        self.emit({"ph": "metrics", "ts": time.time_ns() // 1_000,
                   "scope": scope, "metrics": snapshot})

    def close(self) -> None:
        with self._lock:
            if self._handle is not None:
                try:
                    self._handle.close()
                except OSError:  # pragma: no cover
                    pass
                self._handle = None
                self._pid = None


#: THE module-level enabled check.  ``None`` = tracing off; hot paths
#: test this one global and nothing else.
TRACER: Tracer | None = None

#: Last ``REPRO_TRACE`` value :func:`refresh` acted on (so repeated
#: refreshes at campaign entry are a dict probe, not a reconfigure).
_ENV_SEEN: str | None = None


def enabled() -> bool:
    """Is span tracing active in this process?"""
    return TRACER is not None


def activate(root: str | None = None, label: str = "proc") -> Tracer:
    """Turn tracing on explicitly (tests and the CLI use this)."""
    global TRACER, _ENV_SEEN
    TRACER = Tracer(root if root is not None else default_obs_dir(),
                    label=label)
    _ENV_SEEN = os.environ.get("REPRO_TRACE") or None
    return TRACER


def deactivate() -> None:
    global TRACER, _ENV_SEEN
    if TRACER is not None:
        TRACER.close()
    TRACER = None
    _ENV_SEEN = None


def refresh() -> Tracer | None:
    """Re-read ``REPRO_TRACE`` (campaign/worker entry points call this).

    Truthy values ("1", a path...) activate; unset/empty and the
    ``REPRO_STORE`` falsey words ("0", "false", "no", "off", in any case
    and with surrounding blanks) deactivate.  A value that is a path
    (contains a separator or names an existing directory) selects the
    obs directory directly.
    """
    # Local import: repro.exec.store imports this module.
    from ..exec.store import _FALSEY

    global _ENV_SEEN
    env = os.environ.get("REPRO_TRACE") or None
    if env is not None and env.strip().lower() in _FALSEY:
        env = None
    if env == _ENV_SEEN:
        return TRACER
    if env is None:
        deactivate()
        return None
    root = env if (os.sep in env or os.path.isdir(env)) else None
    tracer = activate(root)
    _ENV_SEEN = env
    return tracer


def span(name: str, **args):
    """A span context manager, or a shared no-op when tracing is off."""
    tracer = TRACER
    if tracer is None:
        return _NOOP
    return tracer.span(name, **args)


def event(name: str, **args) -> None:
    """An instant event; free when tracing is off."""
    tracer = TRACER
    if tracer is not None:
        tracer.event(name, **args)


# ----------------------------------------------------------------------
# reading the logs back
# ----------------------------------------------------------------------
def iter_events(path: str):
    """Yield event records from one JSONL log, skipping torn lines.

    A crash can tear at most the final line of an append-only log;
    any undecodable line is skipped rather than raised.
    """
    try:
        handle = open(path, encoding="utf-8")
    except OSError:
        return
    with handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except ValueError:
                continue
            if isinstance(record, dict):
                yield record


def obs_log_paths(obs_dir: str) -> list[str]:
    """Every per-process log under ``obs_dir``, sorted by name."""
    try:
        names = sorted(os.listdir(obs_dir))
    except OSError:
        return []
    return [os.path.join(obs_dir, name) for name in names
            if name.endswith(".jsonl")]
