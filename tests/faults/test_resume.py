"""Crash-resume: a SIGKILL'd campaign loses only its unflushed cells.

The engine flushes each computed result to the disk store the moment it
completes, so a campaign killed mid-flight and resumed in a fresh
process must serve every already-flushed cell from the store and
recompute exactly the rest — verified by the store's hit/write
counters, not by timing luck.  Both sequential and pooled campaigns
are killed, and a pooled campaign's workers must not outlive a
SIGKILLed coordinator.
"""

import glob
import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.exec import CampaignReport, ResultStore, SimJob, run_jobs
from repro.exec.store import result_to_payload
from repro.harness.experiment import ExperimentConfig

WORKLOADS = ("mesa_like", "gzip_like")
MODELS = ("in-order", "runahead", "multipass", "sltp", "icfp")
INSTRUCTIONS = 311  # unique budget: no other test shares fingerprints

_CAMPAIGN = """
import sys
sys.path.insert(0, {src!r})
from repro.exec import run_jobs, SimJob
from repro.harness.experiment import ExperimentConfig
cfg = ExperimentConfig(instructions={instructions})
jobs = [SimJob(m, w, cfg) for w in {workloads!r} for m in {models!r}]
run_jobs(jobs)
"""


def _result_records(root):
    pattern = os.path.join(root, "v*", "*", "results", "*", "*.json")
    return glob.glob(pattern)


def _start_campaign(root, jobs):
    """The campaign script in its own session (so its process group is
    the coordinator plus any pool workers it forks)."""
    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    script = _CAMPAIGN.format(src=os.path.abspath(src),
                              instructions=INSTRUCTIONS,
                              workloads=WORKLOADS, models=MODELS)
    env = dict(os.environ,
               REPRO_CACHE_DIR=root,
               REPRO_STORE="1",
               REPRO_JOBS=jobs,
               # every attempt crawls: spaces the per-cell flushes out
               # so the kill lands mid-campaign, not after it
               REPRO_FAULTS="slow=1.0,slow_seconds=0.4")
    return subprocess.Popen([sys.executable, "-c", script], env=env,
                            stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL,
                            start_new_session=True)


def _wait_for_flushes(proc, root, count):
    deadline = time.monotonic() + 120.0
    while time.monotonic() < deadline:
        if len(_result_records(root)) >= count or proc.poll() is not None:
            return
        time.sleep(0.01)


def _killpg(proc):
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass  # the whole group is already gone


@pytest.mark.slow
@pytest.mark.parametrize("jobs", ["1", "2"])
def test_sigkill_mid_campaign_resumes_without_recomputing_flushed_cells(
        tmp_path, jobs):
    root = str(tmp_path / "shared-store")
    proc = _start_campaign(root, jobs)
    try:
        _wait_for_flushes(proc, root, 3)
        _killpg(proc)
        proc.wait(timeout=30)
    finally:
        if proc.poll() is None:  # pragma: no cover - defensive
            _killpg(proc)
            proc.wait()

    flushed = len(_result_records(root))
    total = len(WORKLOADS) * len(MODELS)
    assert flushed >= 3  # the kill landed after at least three flushes
    assert flushed < total  # ...and before the last one

    # fresh-process resume (a fresh ResultStore instance is the same
    # thing in-process: zeroed session counters, no RAM memo overlap
    # because this budget's fingerprints are unique to this test)
    store = ResultStore(root)
    cfg = ExperimentConfig(instructions=INSTRUCTIONS)
    jobs = [SimJob(m, w, cfg) for w in WORKLOADS for m in MODELS]
    report = CampaignReport()
    results = run_jobs(jobs, workers=1, memo=False, store=store,
                       report=report)

    assert report.store_hits == flushed
    assert report.computed == total - flushed
    assert store.writes == total - flushed  # zero re-flushed cells
    assert store.corrupt == 0  # atomic writes: a kill never tears one

    # and the resumed table equals a from-scratch computation
    clean = run_jobs(jobs, workers=1, memo=False, store=False)
    assert ([json.dumps(result_to_payload(r), sort_keys=True)
             for r in results]
            == [json.dumps(result_to_payload(r), sort_keys=True)
                for r in clean])


def _live_group_members(pgid):
    """Pids in process group ``pgid`` that are not zombies."""
    live = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii") as handle:
                stat = handle.read()
        except OSError:
            continue  # exited while we looked
        # "pid (comm) state ppid pgrp ...": comm may hold spaces.
        state, _ppid, pgrp = stat.rpartition(")")[2].split()[:3]
        if int(pgrp) == pgid and state != "Z":
            live.append(int(entry))
    return live


@pytest.mark.slow
def test_pool_workers_exit_when_the_coordinator_is_sigkilled(tmp_path):
    root = str(tmp_path / "shared-store")
    proc = _start_campaign(root, "2")
    try:
        _wait_for_flushes(proc, root, 1)
        assert proc.poll() is None, "the campaign ended before the kill"
        os.kill(proc.pid, signal.SIGKILL)  # the coordinator only
        proc.wait(timeout=30)
        deadline = time.monotonic() + 10.0
        while _live_group_members(proc.pid) and time.monotonic() < deadline:
            time.sleep(0.1)
        assert _live_group_members(proc.pid) == []
    finally:
        _killpg(proc)
        if proc.poll() is None:  # pragma: no cover - defensive
            proc.wait()
