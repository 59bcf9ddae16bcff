"""The metrics registry: named counters and histograms.

One merge-safe facility behind every tally in the stack.  The
:class:`~repro.exec.report.CampaignReport` counters (the store's hits
and errors among them) and the engine's leap-audit probes both mirror
into a process-local :class:`MetricsRegistry`, whose snapshot
(:meth:`MetricsRegistry.snapshot`) is a plain JSON-able dict designed
so that snapshots from *any* number of processes merge by addition
(:func:`merge_snapshots`) — counters and histogram buckets sum.

Everything is stdlib, allocation-light, and safe to leave enabled:
an ``inc()`` is a dict probe and an integer add.  The expensive parts
(engine-level probes, snapshot emission into the obs log) only run when
span tracing is on — the same single module-level check
(:func:`repro.obs.trace.enabled`) guards both.

Histograms use power-of-two buckets keyed by bit length, so two
histograms merge by summing sparse bucket dicts with no binning
negotiation.
"""

from __future__ import annotations

import threading


class Counter:
    """Monotonic count; merges by addition."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount


class Histogram:
    """Count/sum/min/max plus sparse power-of-two buckets.

    ``observe(v)`` drops ``v`` into bucket ``int(v).bit_length()``
    (negatives clamp to bucket 0), so bucket ``b`` covers
    ``[2**(b-1), 2**b)``.  Two histograms merge by summing buckets.
    """

    __slots__ = ("name", "count", "total", "min", "max", "buckets")

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.total = 0.0
        self.min: float | None = None
        self.max: float | None = None
        self.buckets: dict[int, int] = {}

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        bucket = int(value).bit_length() if value > 0 else 0
        self.buckets[bucket] = self.buckets.get(bucket, 0) + 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0


class MetricsRegistry:
    """Named instruments, created on first use, snapshot/merge-able."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[str, Counter] = {}
        self._histograms: dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        inst = self._counters.get(name)
        if inst is None:
            with self._lock:
                inst = self._counters.setdefault(name, Counter(name))
        return inst

    def histogram(self, name: str) -> Histogram:
        inst = self._histograms.get(name)
        if inst is None:
            with self._lock:
                inst = self._histograms.setdefault(name, Histogram(name))
        return inst

    def count_into(self, prefix: str, tallies: dict) -> None:
        """Mirror a dict of numeric tallies as ``<prefix>.<key>`` counters
        (the CampaignReport / store-counters bridge)."""
        for key, value in tallies.items():
            if isinstance(value, (int, float)) and value:
                self.counter(f"{prefix}.{key}").inc(int(value))

    def snapshot(self) -> dict:
        """A JSON-able snapshot; the unit :func:`merge_snapshots` takes."""
        out: dict = {"counters": {}, "histograms": {}}
        for name, c in self._counters.items():
            if c.value:
                out["counters"][name] = c.value
        for name, h in self._histograms.items():
            if h.count:
                out["histograms"][name] = {
                    "count": h.count, "sum": h.total,
                    "min": h.min, "max": h.max,
                    "buckets": {str(k): v for k, v in
                                sorted(h.buckets.items())}}
        return out

    def clear(self) -> None:
        with self._lock:
            self._counters.clear()
            self._histograms.clear()


def merge_snapshots(snapshots) -> dict:
    """Fold any number of per-process snapshots into one.

    Counters and histogram count/sum/buckets add; min/max widen.
    """
    merged: dict = {"counters": {}, "histograms": {}}
    for snap in snapshots:
        if not isinstance(snap, dict):
            continue
        for name, value in snap.get("counters", {}).items():
            merged["counters"][name] = merged["counters"].get(name, 0) + value
        for name, hist in snap.get("histograms", {}).items():
            held = merged["histograms"].setdefault(
                name, {"count": 0, "sum": 0.0, "min": None, "max": None,
                       "buckets": {}})
            held["count"] += hist.get("count", 0)
            held["sum"] += hist.get("sum", 0.0)
            for bound in ("min", "max"):
                value = hist.get(bound)
                if value is not None:
                    pick = min if bound == "min" else max
                    held[bound] = (value if held[bound] is None
                                   else pick(held[bound], value))
            for bucket, count in hist.get("buckets", {}).items():
                held["buckets"][bucket] = (
                    held["buckets"].get(bucket, 0) + count)
    return merged


#: Process-wide default registry.  A traced pool worker clears the copy
#: fork handed it and publishes its own cumulative snapshot after every
#: attempt through the obs log's metrics records.
REGISTRY = MetricsRegistry()


def counter(name: str) -> Counter:
    return REGISTRY.counter(name)


def histogram(name: str) -> Histogram:
    return REGISTRY.histogram(name)
