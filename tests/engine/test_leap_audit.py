"""The full leap-vs-stepped differential sweep (``make leap-audit``).

The event-horizon leap's correctness contract is that the horizon set
scanned by ``CoreModel._scan_horizons`` is *complete*: every deferred
action of every mode is represented, so a leap can never skip work a
stepped cycle would have done.  This module is the contract's guard at
full width — every suite kernel, every machine model, two instruction
budgets, full-stats equality between the leap engine and the
cycle-by-cycle reference engine (``leap=False``).

It also pins the four cells that historically diverged (the old
``KNOWN_DIVERGENT`` set of tests/engine/test_idle_skip.py) through the
job engine at two L2 latencies: those cells exercised exactly the
wake-ups the horizon set used to miss (runahead exit edges, multipass
re-scan triggers, iCFP's stale-rally re-queue and fallback-mode flips),
so they are the first place a future regression would surface.
"""

from __future__ import annotations

import json

import pytest

from repro.baselines import InOrderCore, MultipassCore, RunaheadCore, SLTPCore
from repro.core.icfp import ICFPCore, ICFPFeatures
from repro.exec import SimJob, run_jobs
from repro.exec.store import result_to_payload
from repro.pipeline import MachineConfig
from repro.workloads import ALL_KERNELS, trace_by_name

MODELS = [
    (InOrderCore, {}),
    (RunaheadCore, {"advance_on": "l2"}),
    (MultipassCore, {}),
    # SLTP at both triggers: "l2" is its Figure 5 configuration.
    (SLTPCore, {"advance_on": "l2"}),
    (SLTPCore, {"advance_on": "all"}),
    (ICFPCore, {"features": ICFPFeatures()}),
    # The only configuration whose runs fall back on `indexed_stall`, so
    # the audit covers that fallback's exit edges too.
    (ICFPCore, {"features": ICFPFeatures(store_buffer_kind="indexed")}),
]

#: Two budgets on purpose: the short one ends runs inside advance/rally
#: episodes (exit-edge wake-ups), the long one accumulates enough slice
#: pressure to reach the fallback modes (slice-full, store-buffer-full,
#: and indexed-stall in the indexed row).
BUDGETS = (800, 2500)

STAT_FIELDS = ("loads", "stores", "branches", "l1d_misses", "l2_misses")


@pytest.mark.slow
@pytest.mark.parametrize("budget", BUDGETS)
@pytest.mark.parametrize("kernel", ALL_KERNELS)
def test_leap_equals_stepped_everywhere(kernel, budget):
    """Full-stats leap-vs-stepped equality on every (kernel, model)."""
    trace = trace_by_name(kernel, budget)
    for cls, kwargs in MODELS:
        fast = cls(trace, config=MachineConfig.hpca09(), **kwargs).run()
        slow = cls(trace, config=MachineConfig.hpca09(), leap=False,
                   **kwargs).run()
        label = f"{kernel}/{cls.__name__}@{budget}"
        assert fast.cycles == slow.cycles, label
        assert fast.instructions == slow.instructions, label
        for field in STAT_FIELDS:
            assert getattr(fast.stats, field) == getattr(slow.stats, field), (
                f"{label}: {field}")


# ----------------------------------------------------------------------
# formerly-divergent cells through the job engine
# ----------------------------------------------------------------------
#: The exact cells the old KNOWN_DIVERGENT set recorded, as (model name,
#: kernel) for the job engine.
FORMERLY_DIVERGENT = (
    ("multipass", "mcf_like"),
    ("runahead", "equake_like"),
    ("multipass", "equake_like"),
    ("icfp", "equake_like"),
)

FORMERLY_DIVERGENT_INSTRUCTIONS = 800


def _formerly_divergent_jobs():
    from repro.harness.experiment import ExperimentConfig

    # Both L2 latencies: the 20-cycle default of the sweep above and a
    # 300-cycle point it never runs, which stretches every stall window.
    return [SimJob(model, kernel,
                   ExperimentConfig(
                       instructions=FORMERLY_DIVERGENT_INSTRUCTIONS,
                       l2_hit_latency=latency))
            for model, kernel in FORMERLY_DIVERGENT
            for latency in (20, 300)]


def _timing_payloads(results):
    """Payloads minus the stall breakdown, which counts *attempts*: the
    reference engine re-tries a stalled head on every stepped cycle and
    bumps src_wait/port each time, while the leap engine skips straight
    over the dead window.  Everything timing-visible stays in."""
    payloads = []
    for result in results:
        payload = result_to_payload(result)
        payload["stats"].pop("stalls", None)
        for phase in payload.get("phases") or []:
            phase.pop("stalls", None)
        payloads.append(json.dumps(payload, sort_keys=True))
    return payloads


@pytest.mark.slow
def test_formerly_divergent_cells(monkeypatch):
    """The once-divergent cells, run through ``run_jobs``, must match the
    reference engine (``REPRO_NO_LEAP=1``) on every timing-visible
    statistic — leaping is pure scheduling."""
    jobs = _formerly_divergent_jobs()
    monkeypatch.delenv("REPRO_NO_LEAP", raising=False)
    leapt = run_jobs(jobs, workers=1, memo=False, store=False)

    monkeypatch.setenv("REPRO_NO_LEAP", "1")
    reference = run_jobs(jobs, workers=1, memo=False, store=False)
    assert _timing_payloads(leapt) == _timing_payloads(reference)
