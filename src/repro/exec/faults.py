"""Deterministic fault injection (chaos) for the campaign engine.

The engine's fault-tolerance machinery (per-job timeouts, pool
resurrection, sequential degradation, incremental store flush,
quarantine) is only trustworthy if it is *exercised*, so this module
injects the failures it must survive — deterministically, from a seed,
with no wall-clock or RNG state involved:

* **worker death** — ``os._exit`` inside a pool worker, the OOM-killer
  stand-in.  Only fires in worker processes; an in-process (sequential
  or degraded) execution has no worker to kill, so the roll is ignored
  there and campaigns always terminate.
* **slowness** — ``time.sleep(slow_seconds)`` before the job body, the
  slow-cell stand-in that the per-job timeout machinery reaps.
* **store truncation / corruption** — a record's serialised bytes are
  truncated (or garbled) *before* the atomic rename, simulating a torn
  write that the rename discipline cannot see.  The damaged record is
  detected as corrupt on its next read, quarantined, and recomputed.

Every decision is a pure function of ``(seed, kind, key, ordinal)``
via sha256 — no RNG object, no ordering sensitivity: the same plan over
the same campaign injects the same faults in any process.  Job faults
key on ``(fingerprint, attempt)``, so a job re-run after its pool died
re-rolls; store faults key on the record name and a per-process write
ordinal, so a re-written (healed) record re-rolls too.

Activation, in precedence order:

1. :func:`injected_faults` / :func:`set_fault_plan` — an explicit
   in-process override (tests, benchmarks); forked pool workers
   inherit it.
2. the ``REPRO_FAULTS`` environment variable — comma-separated
   ``knob=value`` pairs matching :class:`FaultPlan` fields, e.g.
   ``REPRO_FAULTS="seed=7,worker_death=0.1,store_truncate=0.05"``.

The contract the chaos tests pin: every injected fault the engine
recovers from (a worker death, a slow cell with no timeout, a torn or
garbled record) leaves campaign results byte-identical to a fault-free
run, and a cell a timeout reaps fails alone while its siblings stay
byte-identical.
"""

from __future__ import annotations

import hashlib
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, fields


#: Fault kinds an injector counts (parent-side observability; worker
#: deaths increment inside the worker that dies, so count them from the
#: parent via :meth:`FaultPlan.roll` instead).
FAULT_KINDS = ("worker_death", "slow", "store_truncate", "store_corrupt")


@dataclass(frozen=True)
class FaultPlan:
    """Seed-driven injection rates (0.0 = never, 1.0 = always)."""

    seed: int = 0
    worker_death: float = 0.0
    slow: float = 0.0
    slow_seconds: float = 0.02
    store_truncate: float = 0.0
    store_corrupt: float = 0.0

    def roll(self, kind: str, key, ordinal: int) -> bool:
        """Deterministic Bernoulli trial: same inputs, same verdict."""
        rate = getattr(self, kind)
        if rate <= 0.0:
            return False
        if rate >= 1.0:
            return True
        digest = hashlib.sha256(
            f"{self.seed}|{kind}|{key}|{ordinal}".encode()).digest()
        return int.from_bytes(digest[:8], "big") < rate * 2.0 ** 64

    @classmethod
    def parse(cls, text: str) -> "FaultPlan":
        """Parse the ``REPRO_FAULTS`` format (``knob=value,...``)."""
        known = {f.name for f in fields(cls)}
        kwargs: dict[str, object] = {}
        for part in text.split(","):
            part = part.strip()
            if not part:
                continue
            name, sep, value = part.partition("=")
            name = name.strip().replace("-", "_")
            if not sep or name not in known:
                raise ValueError(
                    f"bad fault spec {part!r}: expected knob=value with "
                    f"knob in {sorted(known)}")
            try:
                kwargs[name] = int(value) if name == "seed" else float(value)
            except ValueError:
                raise ValueError(
                    f"bad fault spec {part!r}: {value!r} is not a number"
                ) from None
        return cls(**kwargs)

    def to_env(self) -> str:
        """The ``REPRO_FAULTS`` string reproducing this plan."""
        defaults = FaultPlan()
        return ",".join(
            f"{f.name}={getattr(self, f.name)}" for f in fields(self)
            if getattr(self, f.name) != getattr(defaults, f.name))


class FaultInjector:
    """One plan plus per-process trigger counters and write ordinals."""

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self.counts = {kind: 0 for kind in FAULT_KINDS}
        self._write_ordinals: dict[str, int] = {}

    def on_job_attempt(self, key: str, attempt: int) -> None:
        """Inject job-level faults at the start of one attempt.

        May sleep (slowness) or kill the current process (worker death
        — pool workers only).
        """
        plan = self.plan
        if plan.roll("slow", key, attempt):
            self.counts["slow"] += 1
            time.sleep(plan.slow_seconds)
        if (plan.worker_death > 0.0 and in_worker_process()
                and plan.roll("worker_death", key, attempt)):
            self.counts["worker_death"] += 1
            os._exit(73)

    def mangle_record(self, data: str, path: str) -> str | None:
        """Damaged record text to write instead, or ``None`` for clean.

        Truncation drops the tail (a torn write); corruption splices
        NULs into the middle (bit rot).  Either way the record fails
        JSON parsing or the shape check on its next read.
        """
        key = os.path.basename(path)
        ordinal = self._write_ordinals.get(key, 0)
        self._write_ordinals[key] = ordinal + 1
        if self.plan.roll("store_truncate", key, ordinal):
            self.counts["store_truncate"] += 1
            return data[:max(1, len(data) // 2)]
        if self.plan.roll("store_corrupt", key, ordinal):
            self.counts["store_corrupt"] += 1
            mid = len(data) // 2
            return data[:mid] + "\x00!chaos!\x00" + data[mid:]
        return None


# ----------------------------------------------------------------------
# process-wide activation
# ----------------------------------------------------------------------
_IN_WORKER = False
_OVERRIDE: FaultInjector | None = None
_ENV_CACHE: tuple[str, FaultInjector | None] = ("", None)


def mark_worker_process() -> None:
    """Called by the engine's pool initializer: worker deaths may fire."""
    global _IN_WORKER
    _IN_WORKER = True


def in_worker_process() -> bool:
    return _IN_WORKER


def set_fault_plan(plan: FaultPlan | None) -> FaultInjector | None:
    """Install (or, with ``None``, remove) the in-process override."""
    global _OVERRIDE
    _OVERRIDE = FaultInjector(plan) if plan is not None else None
    return _OVERRIDE


@contextmanager
def injected_faults(plan: FaultPlan | None):
    """Scoped :func:`set_fault_plan`; yields the injector (counters)."""
    global _OVERRIDE
    previous = _OVERRIDE
    injector = FaultInjector(plan) if plan is not None else None
    _OVERRIDE = injector
    try:
        yield injector
    finally:
        _OVERRIDE = previous


def active_injector() -> FaultInjector | None:
    """The injector in force, or ``None`` when chaos is off.

    Override first, then ``REPRO_FAULTS`` (parsed once per distinct
    value, so workers spawned with the env inherit the plan and tests
    that monkeypatch it get a fresh injector).
    """
    if _OVERRIDE is not None:
        return _OVERRIDE
    global _ENV_CACHE
    text = os.environ.get("REPRO_FAULTS", "").strip()
    cached_text, injector = _ENV_CACHE
    if text != cached_text or (text and injector is None):
        try:
            injector = FaultInjector(FaultPlan.parse(text)) if text else None
        except ValueError as exc:
            raise ValueError(f"REPRO_FAULTS: {exc}") from None
        _ENV_CACHE = (text, injector)
    return injector
