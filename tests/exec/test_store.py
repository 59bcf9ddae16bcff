"""Disk result-store correctness.

The store is the third memo tier; its contract is that a store hit is
indistinguishable from a fresh simulation.  These tests pin that down:
exact stat round-trips, version-bump invalidation, corrupt-record
fallback, the three-tier ``run_jobs`` path, and that nothing outside
that path writes the store.
All stores live in per-test tmpdirs (the root ``tests/conftest.py``
fixture), so tier-1 never touches a developer's ``.repro-cache/``.
"""

import base64
import json
import os
import struct
import tempfile
import zlib

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.baselines.inorder import InOrderCore
from repro.engine.result import SimResult
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
from repro.pipeline.stats import CoreStats, MLPMeter

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


def _unpacked_pairs(blob):
    """A packed meter decoded independently of the store: base64 of
    zlib-compressed little-endian int64 (start, end) pairs."""
    raw = zlib.decompress(base64.b64decode(blob, validate=True))
    return [list(pair) for pair in struct.iter_unpack("<qq", raw)]


def test_double_complete_is_payload_idempotent(tmp_path):
    # Two CLI processes sharing a store can both compute one fingerprint
    # and put it twice: the two writes are byte-identical, so the second
    # put is a no-op whoever wins the rename.
    jobs, [result] = fresh_results(models=("in-order",))
    fingerprint = jobs[0].fingerprint
    store = ResultStore(str(tmp_path / "store"))
    assert store.put_result(fingerprint, result)
    raw, first = _read_record(store, fingerprint)
    assert store.put_result(fingerprint, result)  # the "loser"
    assert _read_record(store, fingerprint)[0] == raw
    # The record layout STORE_SCHEMA names: four keys in this order,
    # compact separators, and the payload result_to_payload writes with
    # each MLP meter packed into one ASCII string.
    assert list(first) == ["schema", "engine", "fingerprint", "payload"]
    assert raw == json.dumps(first, separators=(",", ":"))
    assert (first["schema"], first["engine"], first["fingerprint"]) \
        == (STORE_SCHEMA, ENGINE_VERSION, fingerprint)
    assert result_to_payload(payload_to_result(first["payload"])) \
        == result_to_payload(result)
    expected = json.loads(json.dumps(result_to_payload(result)))
    stats = first["payload"]["stats"]
    for meter_name in ("d_mlp", "l2_mlp"):
        assert expected["stats"][meter_name], "no fills to check"
        assert isinstance(stats[meter_name], str)
        assert _unpacked_pairs(stats[meter_name]) \
            == expected["stats"][meter_name]
        stats[meter_name] = expected["stats"][meter_name]
    assert first["payload"] == expected


def test_payload_round_trip_preserves_interval_tuples(tmp_path):
    # A store round trip rebuilds each meter fill for fill: the same
    # (start, end) pairs, in order, in the same flat int64 array.
    jobs, [result] = fresh_results(models=("icfp",))
    store = ResultStore(str(tmp_path / "store"))
    store.put_result(jobs[0].fingerprint, result)
    rebuilt = store.get_result(jobs[0].fingerprint)
    assert result.stats.d_mlp.count > 0
    for meter_name in ("d_mlp", "l2_mlp"):
        live = getattr(result.stats, meter_name)._fills
        loaded = getattr(rebuilt.stats, meter_name)._fills
        assert loaded.typecode == live.typecode == "q"
        assert loaded == live


def _reference_mlp(intervals):
    """(count, average) by the tuple-list event sweep the flat meter
    replaced."""
    kept = [(start, end) for start, end in intervals if end > start]
    if not kept:
        return 0, 0.0
    events = sorted([(start, 1) for start, _ in kept]
                    + [(end, -1) for _, end in kept])
    active_time = weighted_time = depth = 0
    prev = events[0][0]
    for time, delta in events:
        if depth > 0 and time > prev:
            active_time += time - prev
            weighted_time += (time - prev) * depth
        prev = time
        depth += delta
    return len(kept), (weighted_time / active_time if active_time else 0.0)


#: Cycles that collide often (ties, empty and reversed fills) and
#: cycles past 32 bits.
_cycles = st.one_of(st.integers(0, 40), st.integers(2**31 - 4, 2**31 + 4),
                    st.integers(2**31, 2**62))


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(_cycles, _cycles), max_size=40))
@example([])
@example([(2**31 - 1, 2**31), (5, 5), (9, 3), (2**40, 2**41)])
def test_flat_meter_matches_tuple_sweep_and_round_trips(intervals):
    meter = MLPMeter()
    for start, end in intervals:
        meter.add(start, end)
    count, average = _reference_mlp(intervals)
    assert meter.count == count
    assert meter.average().hex() == average.hex()
    result = SimResult(model="in-order", workload="prop",
                       stats=CoreStats(d_mlp=meter))
    with tempfile.TemporaryDirectory() as root:
        store = ResultStore(root)
        assert store.put_result("ab" * 32, result)
        loaded = store.get_result("ab" * 32)
    assert loaded.stats.d_mlp._fills == meter._fills
    assert loaded.stats.d_mlp.average().hex() == average.hex()
    assert loaded.stats.l2_mlp.count == 0


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
def _b64(data: bytes) -> str:
    return base64.b64encode(data).decode("ascii")


#: Damage to a record's packed D$ meter: each makes the record corrupt.
METER_DAMAGE = {
    # a non-alphabet character: lenient base64 would skip it and decode
    "meter_not_base64": lambda blob: blob[:4] + "*" + blob[4:],
    "meter_not_zlib": lambda blob: _b64(b"not zlib data"),
    # three int64 values: whole int64s, but not whole (start, end) pairs
    "meter_odd_int64s": lambda blob: _b64(zlib.compress(bytes(24))),
    # the nested-list form STORE_SCHEMA 3 wrote
    "meter_nested_list": lambda blob: [[0, 10], [5, 20]],
}


@pytest.mark.parametrize("damage", ["truncate", "garbage", "wrong_shape",
                                    *METER_DAMAGE])
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
    elif damage == "wrong_shape":
        with open(path, "w") as handle:
            json.dump({"schema": store.schema, "engine": store.engine_version,
                       "fingerprint": fp, "payload": {"stats": {}}}, handle)
    else:
        _, record = _read_record(store, fp)
        stats = record["payload"]["stats"]
        stats["d_mlp"] = METER_DAMAGE[damage](stats["d_mlp"])
        with open(path, "w") as handle:
            json.dump(record, handle)

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
