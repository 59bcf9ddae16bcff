"""The observation-only law (tier-1): tracing never changes results.

Running any campaign with ``REPRO_TRACE`` set — sequential grid or
2-worker pool — must produce byte-identical results and stats to the
untraced run, while the obs logs it leaves behind round-trip through
the Chrome exporter with at least one span per job attempt and the
same engine probe counters wherever the jobs ran.
"""

import json

from repro.exec import CampaignReport, SimJob, run_jobs
from repro.exec.store import result_to_payload
from repro.harness.experiment import ExperimentConfig
from repro.obs.export import export_chrome, merge_logs, to_chrome
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace

WORKLOADS = ("mesa_like", "gzip_like")
MODELS = ("in-order", "icfp")


def _jobs(instructions):
    cfg = ExperimentConfig(instructions=instructions)
    return [SimJob(m, w, cfg) for w in WORKLOADS for m in MODELS]


def _payloads(results):
    return [json.dumps(result_to_payload(r), sort_keys=True)
            for r in results]


def _clean(jobs):
    return run_jobs(jobs, workers=1, memo=False, store=False)


def test_traced_sequential_grid_is_byte_identical(tmp_path, monkeypatch):
    jobs = _jobs(347)
    clean = _clean(jobs)
    obs_dir = str(tmp_path / "obs")
    monkeypatch.setenv("REPRO_TRACE", obs_dir)
    traced = run_jobs(jobs, workers=1, memo=False, store=False)
    assert _payloads(traced) == _payloads(clean)
    # ...and the run actually recorded: a campaign span, one job span
    # per cell, and the engine's leap-audit metrics.
    records = merge_logs(obs_dir)
    names = [r["name"] for r in records if r.get("ph") == "X"]
    assert names.count("campaign") == 1
    assert names.count("job") == len(jobs)
    snapshots = [r for r in records if r.get("ph") == "metrics"]
    assert snapshots, "campaign end must publish a metrics snapshot"
    counters = snapshots[-1]["metrics"]["counters"]
    assert counters.get("campaign.computed") == len(jobs)
    assert counters.get("engine.leaps", 0) > 0  # the probe saw leaps


def _engine_counters(counters):
    return {name: value for name, value in counters.items()
            if name.startswith("engine.")}


def test_traced_pool_campaign_is_byte_identical_and_exports(
        tmp_path, monkeypatch):
    jobs = _jobs(349)
    clean = _clean(jobs)
    obs_dir = str(tmp_path / "obs")
    monkeypatch.setenv("REPRO_TRACE", obs_dir)
    report = CampaignReport()
    results = run_jobs(jobs, workers=2, memo=False, store=False,
                       report=report)
    assert _payloads(results) == _payloads(clean)
    assert report.computed == len(jobs)

    # Round trip: the merged logs export to valid Chrome trace JSON...
    out = str(tmp_path / "trace.chrome.json")
    info = export_chrome(obs_dir, out)
    with open(out, encoding="utf-8") as handle:
        doc = json.load(handle)
    events = doc["traceEvents"]
    assert info["events"] == sum(1 for e in events if e["ph"] in ("X", "i"))
    # ...with the coordinator and the pool workers as distinct tracks...
    assert info["tracks"] >= 2
    # ...and at least one attempt span per job.
    fps = {job.fingerprint[:16] for job in jobs}
    attempted = {e["args"].get("fp") for e in events
                 if e["ph"] == "X" and e["name"] == "attempt"}
    assert fps <= attempted
    # The workers' published probes merge to what the same jobs count
    # in-process (from a zeroed registry: it is cumulative per process).
    counters = doc["repro"]["metrics"]["counters"]
    assert counters.get("campaign.computed", 0) == len(jobs)
    engine = _engine_counters(counters)
    assert engine.get("engine.leaps", 0) > 0
    obs_metrics.REGISTRY.clear()
    monkeypatch.setenv("REPRO_TRACE", str(tmp_path / "seq-obs"))
    run_jobs(jobs, workers=1, memo=False, store=False)
    sequential = to_chrome(merge_logs(str(tmp_path / "seq-obs")))
    assert engine == _engine_counters(
        sequential["repro"]["metrics"]["counters"])


def test_trace_off_leaves_no_logs_and_no_probe(tmp_path):
    jobs = _jobs(351)
    results = run_jobs(jobs, workers=1, memo=False, store=False)
    assert len(results) == len(jobs)
    assert obs_trace.TRACER is None
    assert merge_logs(str(tmp_path / "obs")) == []
