"""Store health under sharing: proactive verify.

Once several processes share one store root, the integrity of shared
records becomes a liveness concern.  These tests pin the answer:
``verify()`` quarantines anything a campaign would later reject, and
``repro cache verify`` reports it.
"""

import os

from repro.exec import ResultStore, SimJob, run_jobs
from repro.harness.experiment import ExperimentConfig


def _store_with_results(tmp_path, instructions=420, n=3):
    cfg = ExperimentConfig(instructions=instructions)
    jobs = [SimJob(m, "mesa_like", cfg)
            for m in ("in-order", "runahead", "icfp")[:n]]
    store = ResultStore(str(tmp_path / "store"))
    results = run_jobs(jobs, workers=1, memo=False, store=store)
    return store, jobs, results


def test_verify_clean_store_counts_every_record(tmp_path):
    store, jobs, _ = _store_with_results(tmp_path)
    audit = store.verify()
    assert audit["ok"] == len(jobs)
    assert audit["quarantined"] == 0


def test_verify_quarantines_torn_records_and_spares_counters(tmp_path):
    store, jobs, _ = _store_with_results(tmp_path, instructions=440)
    # Tear one record mid-write; a campaign would hit this lazily at its
    # next lookup — verify() must find and quarantine it now.
    victim = store._record_path(jobs[0].fingerprint)
    with open(victim, "w", encoding="utf-8") as handle:
        handle.write('{"torn')
    audit = store.verify()
    assert audit["quarantined"] == 1
    assert audit["ok"] == len(jobs) - 1
    assert store.quarantined >= 1
    assert not os.path.exists(victim)  # gone from the hot path
    # The store stays usable: the surviving records still decode.
    assert store.get_result(jobs[1].fingerprint) is not None


def test_verify_feeds_cache_verify_cli(tmp_path, capsys, monkeypatch):
    store, jobs, _ = _store_with_results(tmp_path, instructions=460)
    victim = store._record_path(jobs[0].fingerprint)
    with open(victim, "w", encoding="utf-8") as handle:
        handle.write("not json")
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "store"))
    from repro.harness.cli import main
    assert main(["cache", "verify"]) == 0
    out = capsys.readouterr().out
    assert "quarantined" in out
    payload_ok = False
    for line in out.splitlines():
        if "results" in line and "2" in line:
            payload_ok = True
    assert payload_ok
