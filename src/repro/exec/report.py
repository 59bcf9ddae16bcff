"""Campaign observability: what the engine survived, not just returned.

A fault-tolerant scheduler that hides every re-run, timeout, pool
resurrection, and quarantined record is indistinguishable from a flaky
one.  :class:`CampaignReport` is the ledger the engine fills while it
works; ``run_suite``/figures/sweeps thread it through, and the CLI
prints a one-line summary whenever a campaign had incidents.

One report instance may span several ``run_jobs`` calls (a sweep is
many batched campaigns): counters accumulate.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class JobFailure:
    """One failed job: a deterministic job that failed once fails again."""

    label: str          # "model on workload" (or the parallel_map item)
    fingerprint: str
    kind: str           # "exception" | "timeout" | "trace"
    error: str

    def __str__(self) -> str:
        return (f"{self.label} [{self.fingerprint[:12]}] "
                f"{self.kind}: {self.error}")


@dataclass
class CampaignReport:
    """Execution-health counters for one (or more) campaigns."""

    jobs: int = 0           #: job slots requested (memo hits included)
    memo_hits: int = 0      #: served from the RAM memo
    store_hits: int = 0     #: fresh fingerprints loaded from the disk store
    computed: int = 0       #: simulations that actually ran to completion
    attempts: int = 0       #: executions submitted (re-runs re-count)
    retries: int = 0        #: re-submissions of jobs lost with their pool
    timeouts: int = 0       #: attempts reaped by the per-job timeout
    pool_breaks: int = 0    #: BrokenProcessPool events survived
    degradations: int = 0   #: falls back to sequential in-process execution
    store_errors: int = 0   #: corrupt records met + failed store writes
    failures: list[JobFailure] = field(default_factory=list)

    def incidents(self) -> int:
        """Anything the engine had to absorb (0 = a boring campaign)."""
        return (self.retries + self.timeouts + self.pool_breaks
                + self.degradations + self.store_errors
                + len(self.failures))

    def ok(self) -> bool:
        return not self.failures

    def tallies(self) -> dict:
        """The numeric counters only (what mirrors into the metrics
        registry as ``campaign.<name>`` — failures stay structured)."""
        out = self.as_dict()
        out.pop("failures")
        out["failed_jobs"] = len(self.failures)
        return out

    def as_dict(self) -> dict:
        return {
            "jobs": self.jobs,
            "memo_hits": self.memo_hits,
            "store_hits": self.store_hits,
            "computed": self.computed,
            "attempts": self.attempts,
            "retries": self.retries,
            "timeouts": self.timeouts,
            "pool_breaks": self.pool_breaks,
            "degradations": self.degradations,
            "store_errors": self.store_errors,
            "failures": [str(f) for f in self.failures],
        }

    def summary(self) -> str:
        parts = [f"{self.jobs} jobs", f"{self.computed} computed",
                 f"{self.memo_hits} memo hits",
                 f"{self.store_hits} store hits"]
        for name, label in (("retries", "retries"), ("timeouts", "timeouts"),
                            ("pool_breaks", "pool breaks"),
                            ("degradations", "degradations"),
                            ("store_errors", "store errors")):
            value = getattr(self, name)
            if value:
                parts.append(f"{value} {label}")
        if self.failures:
            parts.append(f"{len(self.failures)} FAILED")
        return "campaign: " + ", ".join(parts)
