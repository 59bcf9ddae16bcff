"""Merge per-process obs logs and export Chrome trace-event JSON.

``repro obs export --chrome`` turns a traced campaign — the
coordinator and its pool workers, each with its own append-only JSONL
log under ``<store>/obs/`` — into one Chrome trace-event file (the JSON
Array Format with a ``traceEvents`` wrapper) that chrome://tracing and
https://ui.perfetto.dev render as a timeline with one track per
process: the whole multi-worker campaign on one screen, attempts and
store flushes included.

The span records are already almost Chrome events ("X" complete events
with microsecond ``ts``/``dur``); export normalises timestamps to the
earliest event (Perfetto dislikes epoch-sized numbers), maps instant
records to phase "i", forwards ``process_name`` metadata, and folds
``metrics`` records out of the event stream into one merged registry
snapshot returned alongside (and embedded under the top-level
``repro`` key, where trace viewers ignore it).
"""

from __future__ import annotations

import json

from .metrics import merge_snapshots
from .trace import iter_events, obs_log_paths


def merge_logs(obs_dir: str) -> list[dict]:
    """Every record from every per-process log, in timestamp order."""
    records: list[dict] = []
    for path in obs_log_paths(obs_dir):
        records.extend(iter_events(path))
    records.sort(key=lambda r: r.get("ts", 0))
    return records


def split_records(records):
    """``(spans_and_instants, metadata, metrics_snapshots)``.

    Metrics records are cumulative per process (a long-lived process
    emits one per campaign, a traced pool worker one per attempt), so
    only the latest snapshot per pid survives — merging then sums
    across *processes*, never across a process's own history.
    """
    spans, meta = [], []
    last_snapshot: dict[int, dict] = {}
    for record in records:
        ph = record.get("ph")
        if ph in ("X", "i"):
            spans.append(record)
        elif ph == "M":
            meta.append(record)
        elif ph == "metrics":
            snap = record.get("metrics")
            if snap:
                last_snapshot[record.get("pid", 0)] = snap
    return spans, meta, list(last_snapshot.values())


def to_chrome(records) -> dict:
    """Convert merged obs records to a Chrome trace-event document."""
    spans, meta, snapshots = split_records(records)
    base = min((r["ts"] for r in spans if "ts" in r), default=0)
    events: list[dict] = []
    named: set[int] = set()
    for record in meta:
        pid = record.get("pid", 0)
        if record.get("name") == "process_name" and pid not in named:
            named.add(pid)
            events.append({"ph": "M", "name": "process_name", "pid": pid,
                           "tid": 0, "args": record.get("args", {})})
    for record in spans:
        event = {"ph": record["ph"], "name": record.get("name", "?"),
                 "ts": record.get("ts", base) - base,
                 "pid": record.get("pid", 0), "tid": record.get("tid", 0),
                 "cat": "repro", "args": record.get("args", {})}
        if record["ph"] == "X":
            event["dur"] = record.get("dur", 0)
        else:
            event["s"] = "t"  # thread-scoped instant
        events.append(event)
    return {"traceEvents": events,
            "displayTimeUnit": "ms",
            "repro": {"metrics": merge_snapshots(snapshots),
                      "records": len(records)}}


def export_chrome(obs_dir: str, output: str) -> dict:
    """Merge ``obs_dir`` and write Chrome JSON to ``output``.

    Returns a small summary dict (event/track counts) for the CLI.
    """
    document = to_chrome(merge_logs(obs_dir))
    with open(output, "w", encoding="utf-8") as handle:
        json.dump(document, handle)
        handle.write("\n")
    events = document["traceEvents"]
    return {"output": output,
            "events": sum(1 for e in events if e["ph"] in ("X", "i")),
            "tracks": len({e["pid"] for e in events}),
            "metrics": len(document["repro"]["metrics"]["counters"])}


def summarize(records) -> dict:
    """Span-name histogram + merged metrics (``repro obs export`` text)."""
    spans, _meta, snapshots = split_records(records)
    by_name: dict[str, dict] = {}
    for record in spans:
        row = by_name.setdefault(record.get("name", "?"),
                                 {"count": 0, "total_us": 0})
        row["count"] += 1
        row["total_us"] += record.get("dur", 0)
    return {"spans": by_name, "metrics": merge_snapshots(snapshots)}
