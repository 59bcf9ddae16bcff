"""Corrupt-record quarantine: evidence preserved, store self-heals."""

import json
import os

from repro.exec import FaultPlan, ResultStore, SimJob, injected_faults
from repro.exec.store import result_to_payload
from repro.harness.cli import main as cli_main
from repro.harness.experiment import ExperimentConfig, run_model


def _computed_result(instructions=300):
    from repro.exec.cache import TRACE_CACHE

    config = ExperimentConfig(instructions=instructions)
    trace = TRACE_CACHE.get("mesa_like", instructions)
    return run_model("in-order", trace, config), SimJob(
        "in-order", "mesa_like", config).fingerprint


def test_corrupt_record_is_quarantined_not_deleted(tmp_path):
    store = ResultStore(str(tmp_path / "store"))
    result, fp = _computed_result()
    assert store.put_result(fp, result)
    path = store._record_path(fp)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write('{"schema": 2, "truncated')

    assert store.get_result(fp) is None
    assert store.corrupt == 1
    assert not os.path.exists(path)  # original slot freed for the rewrite
    entries = store.quarantine_entries()
    assert len(entries) == 1
    assert entries[0]["name"] == f"results__{fp[:2]}__{fp}.json"
    quarantined = os.path.join(store.quarantine_dir(), entries[0]["name"])
    with open(quarantined, encoding="utf-8") as handle:
        assert handle.read() == '{"schema": 2, "truncated'  # evidence kept

    info = store.stats()
    assert info["quarantine"] == {"entries": 1,
                                  "bytes": len('{"schema": 2, "truncated')}

    # the recomputed record lands back in the original slot and reads
    assert store.put_result(fp, result)
    assert store.get_result(fp) is not None

    assert store.clear_quarantine() == 1
    assert store.quarantine_entries() == []
    assert not os.path.isdir(store.quarantine_dir())


def test_wrong_shape_payload_is_quarantined(tmp_path):
    store = ResultStore(str(tmp_path / "store"))
    result, fp = _computed_result()
    payload = result_to_payload(result)
    del payload["phases"]  # schema v2 requires the key: corrupt shape
    path = store._record_path(fp)
    os.makedirs(os.path.dirname(path))
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"schema": store.schema, "engine": store.engine_version,
                   "fingerprint": fp, "payload": payload}, handle)
    assert store.get_result(fp) is None
    assert store.corrupt == 1
    assert store.hits == 0  # a record that does not decode is no hit
    assert len(store.quarantine_entries()) == 1


def test_injected_truncation_corrupts_then_heals(tmp_path):
    store = ResultStore(str(tmp_path / "store"))
    result, fp = _computed_result()
    with injected_faults(FaultPlan(store_truncate=1.0)) as injector:
        assert store.put_result(fp, result)  # the write itself "succeeds"
    assert injector.counts["store_truncate"] == 1
    # torn but atomic: the half-record landed as one stable file
    assert os.path.exists(store._record_path(fp))

    assert store.get_result(fp) is None  # detected on the next read
    assert store.corrupt == 1
    assert len(store.quarantine_entries()) == 1

    assert store.put_result(fp, result)  # chaos off: clean rewrite
    healed = store.get_result(fp)
    assert healed is not None
    assert (json.dumps(result_to_payload(healed), sort_keys=True)
            == json.dumps(result_to_payload(result), sort_keys=True))


def test_injected_corruption_ordinals_reroll_per_write(tmp_path):
    store = ResultStore(str(tmp_path / "store"))
    result, fp = _computed_result()
    plan = FaultPlan(seed=2, store_corrupt=0.5)
    basename = fp + ".json"
    verdicts = [plan.roll("store_corrupt", basename, n) for n in range(8)]
    with injected_faults(plan) as injector:
        for _ in range(8):
            assert store.put_result(fp, result)
    assert injector.counts["store_corrupt"] == sum(verdicts)


def test_clear_removes_quarantine_too(tmp_path):
    store = ResultStore(str(tmp_path / "store"))
    result, fp = _computed_result()
    assert store.put_result(fp, result)
    path = store._record_path(fp)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("junk")
    assert store.get_result(fp) is None  # quarantines
    assert store.put_result(fp, result)  # one live record again
    assert store.clear() == 2  # the quarantined capture + the live record
    assert store.quarantine_entries() == []


def test_cli_quarantine_lists_and_clears(tmp_path, monkeypatch, capsys):
    root = str(tmp_path / "cli-store")
    monkeypatch.setenv("REPRO_CACHE_DIR", root)
    store = ResultStore(root)
    result, fp = _computed_result()
    assert store.put_result(fp, result)
    with open(store._record_path(fp), "w",
              encoding="utf-8") as handle:
        handle.write("junk")
    assert store.get_result(fp) is None

    assert cli_main(["cache", "quarantine"]) == 0
    out = capsys.readouterr().out
    assert f"results__{fp[:2]}__{fp}.json" in out

    assert cli_main(["cache", "stats"]) == 0
    assert "quarantine: 1 corrupt records" in capsys.readouterr().out

    assert cli_main(["cache", "quarantine", "--clear"]) == 0
    assert "cleared 1 quarantined records" in capsys.readouterr().out

    assert cli_main(["cache", "quarantine"]) == 0
    assert "quarantine empty" in capsys.readouterr().out
