"""Disk result-store correctness.

The store is the third memo tier; its contract is that a store hit is
indistinguishable from a fresh simulation.  These tests pin that down:
exact stat round-trips, version-bump invalidation, corrupt-record
fallback, the three-tier ``run_jobs`` path, and that nothing outside
that path writes the store.
All stores live in per-test tmpdirs (the root ``tests/conftest.py``
fixture), so tier-1 never touches a developer's ``.repro-cache/``.
"""

import json
import os

import pytest

from repro.baselines.inorder import InOrderCore
from repro.exec import (
    RESULT_CACHE,
    TRACE_CACHE,
    ResultStore,
    SimJob,
    default_store,
    run_jobs,
)
from repro.exec.store import (
    ENGINE_VERSION,
    STORE_SCHEMA,
    cache_dir,
    payload_to_result,
    result_to_payload,
    store_enabled,
)
from repro.harness.cli import main
from repro.harness.experiment import MODELS, ExperimentConfig, make_core

CFG = ExperimentConfig(instructions=400)

#: Current version directory name (record paths live under it).
VDIR = f"v{STORE_SCHEMA}"


def fresh_results(models=("in-order", "icfp"), workload="mcf_like"):
    """Simulate a tiny grid with every cache tier off."""
    jobs = [SimJob(model, workload, CFG) for model in models]
    return jobs, run_jobs(jobs, workers=1, memo=False, store=False)


# ----------------------------------------------------------------------
# serialisation round-trip
# ----------------------------------------------------------------------
def test_store_hit_is_byte_identical_to_fresh_simulation(tmp_path):
    jobs, results = fresh_results()
    store = ResultStore(str(tmp_path / "store"))
    for job, result in zip(jobs, results):
        store.put_result(job.fingerprint, result)
    # A different instance (fresh process stand-in) must reproduce every
    # recorded statistic exactly, including the MLP meters' derived
    # values, which recompute from the persisted raw intervals.
    reader = ResultStore(str(tmp_path / "store"))
    for job, result in zip(jobs, results):
        loaded = reader.get_result(job.fingerprint)
        assert loaded is not None and loaded is not result
        assert result_to_payload(loaded) == result_to_payload(result)
        assert loaded.cycles == result.cycles
        assert loaded.ipc == result.ipc
        assert loaded.stats.stalls.total() == result.stats.stalls.total()
        assert loaded.stats.d_mlp.average() == result.stats.d_mlp.average()
        assert loaded.stats.l2_mlp.count == result.stats.l2_mlp.count
    assert reader.hits == len(jobs) and reader.corrupt == 0


def _read_record(store, fp):
    with open(store._record_path(fp), encoding="utf-8") as handle:
        raw = handle.read()
    return raw, json.loads(raw)


def test_double_complete_is_payload_idempotent(tmp_path):
    # Two CLI processes sharing a store can both compute one fingerprint
    # and put it twice: the records are payload-identical, so the second
    # put is a semantic no-op whoever wins the rename.
    jobs, [result] = fresh_results(models=("in-order",),
                                   workload="mesa_like")
    fingerprint = jobs[0].fingerprint
    store = ResultStore(str(tmp_path / "store"))
    assert store.put_result(fingerprint, result)
    raw, first = _read_record(store, fingerprint)
    assert store.put_result(fingerprint, result)  # the "loser"
    _, second = _read_record(store, fingerprint)
    assert (json.dumps(first["payload"], sort_keys=True)
            == json.dumps(second["payload"], sort_keys=True))
    # The record layout STORE_SCHEMA names: five keys in this order,
    # compact separators, the payload result_to_payload writes.
    assert list(first) == ["schema", "engine", "fingerprint", "created",
                           "payload"]
    assert raw == json.dumps(first, separators=(",", ":"))
    assert (first["schema"], first["engine"], first["fingerprint"]) \
        == (STORE_SCHEMA, ENGINE_VERSION, fingerprint)
    assert first["payload"] == json.loads(
        json.dumps(result_to_payload(result)))


def test_payload_round_trip_preserves_interval_tuples():
    _, results = fresh_results(models=("icfp",))
    rebuilt = payload_to_result(
        json.loads(json.dumps(result_to_payload(results[0]))))
    for interval in rebuilt.stats.d_mlp._intervals:
        assert isinstance(interval, tuple)


# ----------------------------------------------------------------------
# versioning
# ----------------------------------------------------------------------
def test_schema_or_engine_bump_invalidates_cleanly(tmp_path):
    root = str(tmp_path / "store")
    jobs, results = fresh_results(models=("in-order",))
    fp = jobs[0].fingerprint
    ResultStore(root).put_result(fp, results[0])

    bumped_engine = ResultStore(root, engine_version=ENGINE_VERSION + ".next")
    assert bumped_engine.get_result(fp) is None
    assert bumped_engine.misses == 1 and bumped_engine.corrupt == 0

    bumped_schema = ResultStore(root, schema=STORE_SCHEMA + 1)
    assert bumped_schema.get_result(fp) is None
    assert bumped_schema.misses == 1 and bumped_schema.corrupt == 0

    # The old-version record is untouched (no destructive reads) ...
    assert ResultStore(root).get_result(fp) is not None
    # ... until gc reclaims it as stale from the bumped store's view.
    removed = bumped_engine.gc(older_than_days=10_000)
    assert removed["stale"] == 1
    assert ResultStore(root).get_result(fp) is None


def test_previous_engine_generation_records_are_invisible(tmp_path):
    """Records written under the pre-bump tag ("eh2", before the horizon
    set was provably complete) must never satisfy a lookup from the
    current engine: their timing could embed a bad leap."""
    root = str(tmp_path / "store")
    jobs, results = fresh_results(models=("in-order",))
    fp = jobs[0].fingerprint
    ResultStore(root, engine_version="eh2").put_result(fp, results[0])

    current = ResultStore(root)
    assert current.engine_version == ENGINE_VERSION == "eh3"
    assert current.get_result(fp) is None
    assert current.misses == 1 and current.corrupt == 0
    # The record is still there under its own tag (no destructive reads);
    # only a gc from the current store's view reclaims it.
    assert ResultStore(root, engine_version="eh2").get_result(fp) is not None
    assert current.gc(older_than_days=10_000)["stale"] == 1
    assert ResultStore(root, engine_version="eh2").get_result(fp) is None


def test_gc_expires_current_records_by_age(tmp_path):
    root = str(tmp_path / "store")
    store = ResultStore(root)
    jobs, results = fresh_results(models=("in-order",))
    store.put_result(jobs[0].fingerprint, results[0])
    assert store.gc(older_than_days=1)["expired"] == 0
    assert store.get_result(jobs[0].fingerprint) is not None
    path = store._record_path(jobs[0].fingerprint)
    os.utime(path, (1, 1))  # ancient mtime
    assert store.gc(older_than_days=1)["expired"] == 1
    assert ResultStore(root).get_result(jobs[0].fingerprint) is None


def test_gc_prune_never_touches_foreign_directories(tmp_path):
    """A mis-pointed REPRO_CACHE_DIR must survive gc intact."""
    root = tmp_path / "store"
    store = ResultStore(str(root))
    jobs, results = fresh_results(models=("in-order",))
    store.put_result(jobs[0].fingerprint, results[0])
    bystander = root / "my-project" / "empty-subdir"
    bystander.mkdir(parents=True)
    path = store._record_path(jobs[0].fingerprint)
    os.utime(path, (1, 1))
    assert store.gc(older_than_days=1)["expired"] == 1
    assert bystander.is_dir(), "gc pruned a non-store directory"
    assert not os.path.exists(os.path.dirname(path))  # emptied shard pruned


def test_clear_removes_only_store_owned_entries(tmp_path):
    root = tmp_path / "store"
    store = ResultStore(str(root))
    jobs, results = fresh_results(models=("in-order",))
    store.put_result(jobs[0].fingerprint, results[0])
    bystander = root / "NOTES.txt"
    bystander.write_text("not a store record")
    assert store.clear() == 1
    assert bystander.exists()
    assert not (root / VDIR).exists()
    assert os.listdir(root) == ["NOTES.txt"]


# ----------------------------------------------------------------------
# corruption
# ----------------------------------------------------------------------
@pytest.mark.parametrize("damage", ["truncate", "garbage", "wrong_shape"])
def test_corrupt_record_falls_back_to_recompute(tmp_path, damage):
    root = str(tmp_path / "store")
    store = ResultStore(root)
    jobs, results = fresh_results(models=("in-order",))
    fp = jobs[0].fingerprint
    store.put_result(fp, results[0])
    path = store._record_path(fp)
    if damage == "truncate":
        with open(path, "r+") as handle:
            handle.truncate(os.path.getsize(path) // 2)
    elif damage == "garbage":
        with open(path, "w") as handle:
            handle.write("not json {")
    else:
        with open(path, "w") as handle:
            json.dump({"schema": store.schema, "engine": store.engine_version,
                       "fingerprint": fp, "payload": {"stats": {}}}, handle)

    reader = ResultStore(root)
    assert reader.get_result(fp) is None
    assert reader.corrupt == 1 and reader.hits == 0
    assert not os.path.exists(path)  # discarded, so a rewrite can land

    # The engine recomputes and repopulates transparently.
    RESULT_CACHE.clear()
    recomputed, = run_jobs([jobs[0]], workers=1, store=reader)
    assert result_to_payload(recomputed) == result_to_payload(results[0])
    assert ResultStore(root).get_result(fp) is not None


# ----------------------------------------------------------------------
# phase attribution (STORE_SCHEMA v2)
# ----------------------------------------------------------------------
def _multi_phase_spec():
    from repro.wgen import generate_suite

    return next(s for s in generate_suite(4, 42) if len(s.phases) > 1)


def test_phase_stats_round_trip_exactly(tmp_path):
    from dataclasses import fields

    from repro.pipeline.stats import PhaseStats

    spec = _multi_phase_spec()
    jobs, results = fresh_results(models=("in-order", "icfp"), workload=spec)
    assert all(len(r.phase_stats) == len(spec.phases) for r in results)
    store = ResultStore(str(tmp_path / "store"))
    for job, result in zip(jobs, results):
        store.put_result(job.fingerprint, result)
    reader = ResultStore(str(tmp_path / "store"))
    for job, result in zip(jobs, results):
        loaded = reader.get_result(job.fingerprint)
        assert loaded is not None
        assert result_to_payload(loaded) == result_to_payload(result)
        for a, b in zip(loaded.phase_stats, result.phase_stats):
            for f in fields(PhaseStats):
                assert getattr(a, f.name) == getattr(b, f.name)
    assert reader.corrupt == 0


def test_single_bucket_and_none_phase_stats_round_trip(tmp_path):
    jobs, results = fresh_results(models=("in-order",))
    assert len(results[0].phase_stats) == 1  # named kernel: one bucket
    results[0].phase_stats = None            # externally built program case
    store = ResultStore(str(tmp_path / "store"))
    store.put_result(jobs[0].fingerprint, results[0])
    assert store.get_result(jobs[0].fingerprint).phase_stats is None


def test_record_without_phases_key_is_corrupt(tmp_path):
    """The v2 layout requires `phases`; a mismatched payload recomputes."""
    jobs, results = fresh_results(models=("in-order",))
    fp = jobs[0].fingerprint
    store = ResultStore(str(tmp_path / "store"))
    store.put_result(fp, results[0])
    _, record = _read_record(store, fp)
    del record["payload"]["phases"]
    with open(store._record_path(fp), "w", encoding="utf-8") as handle:
        json.dump(record, handle)
    reader = ResultStore(str(tmp_path / "store"))
    assert reader.get_result(fp) is None
    assert reader.corrupt == 1


def test_pre_bump_schema_records_are_invisible(tmp_path):
    """Records written under the previous schema are never read (or
    misread) by the current one — the bump hides them until gc."""
    root = str(tmp_path / "store")
    jobs, results = fresh_results(models=("in-order",))
    fp = jobs[0].fingerprint
    old = ResultStore(root, schema=STORE_SCHEMA - 1)
    old.put_result(fp, results[0])
    current = ResultStore(root)
    assert current.get_result(fp) is None
    assert current.misses == 1 and current.corrupt == 0
    assert current.gc(older_than_days=10_000)["stale"] == 1


# ----------------------------------------------------------------------
# the three-tier run_jobs path
# ----------------------------------------------------------------------
def test_run_jobs_hits_store_for_every_cell_after_memo_clear(monkeypatch):
    jobs = [SimJob(model, "gzip_like", CFG)
            for model in ("in-order", "runahead", "icfp")]
    monkeypatch.setenv("REPRO_JOBS", "1")
    RESULT_CACHE.clear()
    first = run_jobs(jobs)
    store = default_store()
    assert store is not None and store.writes >= len(jobs)

    # A cleared RAM memo stands in for a fresh process: every cell must
    # now come from the disk store, with zero simulations.
    RESULT_CACHE.clear()
    simulated = []
    monkeypatch.setattr(
        SimJob, "run",
        lambda self: simulated.append(self.fingerprint))
    hits_before = store.hits
    second = run_jobs(jobs)
    assert simulated == []
    assert store.hits == hits_before + len(jobs)
    assert ([result_to_payload(r) for r in first]
            == [result_to_payload(r) for r in second])


def _grid_jobs():
    return [SimJob(model, "mesa_like", CFG) for model in MODELS]


def _bare_cores(_monkeypatch):
    assert store_enabled()
    trace = TRACE_CACHE.get("mesa_like", CFG.instructions)
    for model in MODELS:
        make_core(model, trace, CFG).run()


def _run_no_leap(monkeypatch):
    # The CLI sets REPRO_NO_LEAP in os.environ; register it for restore.
    monkeypatch.setenv("REPRO_NO_LEAP", "0")
    assert main(["run", "mesa_like", "all", "-n", "400", "--no-leap"]) == 0


@pytest.mark.parametrize("simulate", [
    _bare_cores,
    lambda _mp: run_jobs(_grid_jobs(), workers=1, store=False),
    lambda _mp: run_jobs(_grid_jobs(), workers=1, memo=False),
    _run_no_leap,
], ids=["make-core", "store-false", "memo-false", "run-no-leap"])
def test_no_result_store_means_no_disk_traffic(monkeypatch, simulate):
    """Only run_jobs' result tier writes the store: building and running
    cores, or a campaign with that tier off, leaves the root empty."""
    # A trace some earlier test warmed would hide a disk write.
    TRACE_CACHE.clear()
    simulate(monkeypatch)
    written = [os.path.join(parent, name)
               for parent, _dirs, names in os.walk(cache_dir())
               for name in names]
    assert written == []


def test_store_env_toggle(monkeypatch):
    assert store_enabled()
    monkeypatch.setenv("REPRO_STORE", "0")
    assert not store_enabled() and default_store() is None
    monkeypatch.setenv("REPRO_STORE", "off")
    assert not store_enabled()
    monkeypatch.setenv("REPRO_STORE", "1")
    assert store_enabled() and default_store() is not None


# ----------------------------------------------------------------------
# warm-state snapshots (in-process only)
# ----------------------------------------------------------------------
def test_warm_checkpoint_shared_across_models_and_runs(monkeypatch):
    from repro.workloads import trace_by_name

    warmed = []
    real_warm = InOrderCore._warm_dcache
    monkeypatch.setattr(InOrderCore, "_warm_dcache",
                        lambda self: (warmed.append(1), real_warm(self))[1])

    trace = trace_by_name("equake_like", 400)
    machine = CFG.machine_config()
    first = InOrderCore(trace, config=machine)
    assert warmed == [1]
    # Same process, later model: served by the in-RAM snapshot.
    second = InOrderCore(trace, config=machine)
    assert warmed == [1]

    for level in ("l1i", "l1d", "l2"):
        assert (getattr(first.hierarchy, level).export_sets()
                == getattr(second.hierarchy, level).export_sets())
    for way_list in second.hierarchy.l2.export_sets():
        for entry in way_list:
            assert isinstance(entry, tuple)
