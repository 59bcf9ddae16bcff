"""Store health under sharing: locked counters, proactive verify.

Once several processes share one store root, ``counters.json`` becomes
a multi-writer file and the integrity of shared records becomes a
liveness concern.  These tests pin the two answers: the lock-file
read-merge-rename keeps concurrent flushes lossless, and ``verify()``
quarantines anything a campaign would later reject.
"""

import json
import os
import threading

from repro.exec import ResultStore, SimJob, run_jobs
from repro.harness.experiment import ExperimentConfig


def _store_with_results(tmp_path, instructions=420, n=3):
    cfg = ExperimentConfig(instructions=instructions)
    jobs = [SimJob(m, "mesa_like", cfg)
            for m in ("in-order", "runahead", "icfp")[:n]]
    store = ResultStore(str(tmp_path / "store"))
    results = run_jobs(jobs, workers=1, memo=False, store=store)
    return store, jobs, results


def test_concurrent_counter_flushes_are_lossless(tmp_path):
    # Sixteen "workers" (threads, each with its own ResultStore handle —
    # the process-level analogue) flush misses into one root at once.
    # Every increment must land: read-merge-rename under the lock.
    root = str(tmp_path / "store")
    per_worker, workers = 25, 16
    barrier = threading.Barrier(workers)

    def flush(index):
        store = ResultStore(root)
        store.misses = per_worker
        store.writes = index  # uneven deltas: merge, not overwrite
        barrier.wait()
        store.flush_counters()

    threads = [threading.Thread(target=flush, args=(i,))
               for i in range(workers)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    assert not any(t.is_alive() for t in threads)
    totals = ResultStore(root).read_counters()
    assert totals["misses"] == per_worker * workers
    assert totals["writes"] == sum(range(workers))
    assert not os.path.exists(os.path.join(root, "counters.json.lock"))


def test_flush_is_idempotent_per_session(tmp_path):
    store = ResultStore(str(tmp_path / "store"))
    store.hits = 7
    store.flush_counters()
    store.flush_counters()  # no new deltas: must not double-count
    assert store.read_counters()["hits"] == 7
    store.hits = 9
    store.flush_counters()
    assert store.read_counters()["hits"] == 9


def test_stale_lock_is_broken_not_waited_on(tmp_path, monkeypatch):
    store = ResultStore(str(tmp_path / "store"))
    os.makedirs(store.root, exist_ok=True)  # root is created lazily
    lock = os.path.join(store.root, "counters.json.lock")
    with open(lock, "w", encoding="utf-8"):
        pass
    ancient = 10_000.0  # far past the stale cutoff
    os.utime(lock, (ancient, ancient))
    store.misses = 3
    store.flush_counters()  # a dead holder's lock must not wedge this
    assert store.read_counters()["misses"] == 3
    assert not os.path.exists(lock)


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
    hits, misses = store.hits, store.misses
    audit = store.verify()
    assert audit["quarantined"] == 1
    assert audit["ok"] == len(jobs) - 1
    assert (store.hits, store.misses) == (hits, misses)  # audit != traffic
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
