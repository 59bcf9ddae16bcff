"""Metrics registry: instruments, snapshots, cross-process merging.

The merge law the fleet relies on: snapshots from any number of
processes fold by addition (counters, histogram counts/sums/buckets),
so per-worker registries published through the obs log always
reconstruct the campaign totals.
"""

import json

from repro.obs.metrics import MetricsRegistry, merge_snapshots


def test_counter_gauge_histogram_basics():
    reg = MetricsRegistry()
    reg.counter("jobs").inc()
    reg.counter("jobs").inc(4)
    assert reg.counter("jobs").value == 5
    h = reg.histogram("lat")
    for v in (1, 3, 3, 100):
        h.observe(v)
    assert h.count == 4
    assert h.total == 107
    assert (h.min, h.max) == (1, 100)
    assert h.mean == 107 / 4
    # Power-of-two buckets by bit length: 1 -> 1, 3 -> 2, 100 -> 7.
    assert h.buckets == {1: 1, 2: 2, 7: 1}


def test_histogram_nonpositive_values_clamp_to_bucket_zero():
    reg = MetricsRegistry()
    h = reg.histogram("h")
    h.observe(0)
    h.observe(-5)
    assert h.buckets == {0: 2}
    assert h.min == -5


def test_count_into_mirrors_numeric_nonzero_tallies():
    reg = MetricsRegistry()
    reg.count_into("campaign", {"computed": 3, "retries": 0,
                                "label": "not-a-number", "hits": 2.0})
    snap = reg.snapshot()
    assert snap["counters"] == {"campaign.computed": 3, "campaign.hits": 2}


def test_snapshot_is_json_able_and_drops_idle_instruments():
    reg = MetricsRegistry()
    reg.counter("touched").inc()
    reg.counter("never")  # created but zero: not in the snapshot
    reg.histogram("empty")
    snap = json.loads(json.dumps(reg.snapshot()))
    assert snap["counters"] == {"touched": 1}
    assert snap["histograms"] == {}


def test_merge_snapshots_adds_counters_and_buckets():
    a = MetricsRegistry()
    b = MetricsRegistry()
    for reg, n in ((a, 2), (b, 5)):
        reg.counter("done").inc(n)
        reg.histogram("kipc").observe(n)
    merged = merge_snapshots([a.snapshot(), b.snapshot()])
    assert merged["counters"]["done"] == 7
    hist = merged["histograms"]["kipc"]
    assert hist["count"] == 2
    assert hist["sum"] == 7.0
    assert (hist["min"], hist["max"]) == (2, 5)
    assert hist["buckets"] == {"2": 1, "3": 1}


def test_merge_snapshots_tolerates_junk_and_empty():
    good = MetricsRegistry()
    good.counter("c").inc()
    merged = merge_snapshots([None, "junk", {}, good.snapshot()])
    assert merged["counters"] == {"c": 1}
    assert merge_snapshots([]) == {"counters": {}, "histograms": {}}


def test_clear_resets_the_registry():
    reg = MetricsRegistry()
    reg.counter("c").inc()
    reg.clear()
    assert reg.snapshot()["counters"] == {}
