"""Tracer unit contract: off by default, JSONL spans when on.

The zero-overhead side of the observation-only law: with no activation,
``span()``/``event()`` are a single module-global check returning a
shared no-op.  When on, every record is one appended, flushed JSON line
— so a crash tears at most one — and the reader skips torn lines.
"""

import json
import os
import threading

from repro.obs import trace as obs_trace
from repro.obs.trace import Tracer, iter_events


def _records(path):
    return list(iter_events(path))


def test_tracing_is_off_by_default():
    assert obs_trace.TRACER is None
    assert not obs_trace.enabled()
    # The off path hands back the one shared no-op object — no
    # per-call allocation.
    assert obs_trace.span("anything", x=1) is obs_trace.span("else")
    obs_trace.event("ignored", x=1)  # and events are free


def test_span_emits_complete_record_with_duration(tmp_path):
    tracer = obs_trace.activate(str(tmp_path), label="t")
    with obs_trace.span("work", fp="abc", attempt=1):
        pass
    records = _records(tracer.path)
    # First line names the track, then the span.
    assert records[0]["ph"] == "M"
    assert records[0]["name"] == "process_name"
    assert records[0]["schema"] == obs_trace.OBS_SCHEMA
    span = records[1]
    assert span["ph"] == "X"
    assert span["name"] == "work"
    assert span["args"] == {"fp": "abc", "attempt": 1}
    assert span["pid"] == os.getpid()
    assert span["tid"] == threading.get_native_id()
    assert span["dur"] >= 0
    assert span["ts"] > 0


def test_span_records_exception_type_and_propagates(tmp_path):
    tracer = obs_trace.activate(str(tmp_path))
    try:
        with obs_trace.span("boom"):
            raise ValueError("no")
    except ValueError:
        pass
    else:  # pragma: no cover - the span must not swallow
        raise AssertionError("span swallowed the exception")
    span = _records(tracer.path)[-1]
    assert span["args"]["error"] == "ValueError"


def test_instant_event_record(tmp_path):
    tracer = obs_trace.activate(str(tmp_path))
    obs_trace.event("lease.issued", fp="beef", worker="w0")
    instant = _records(tracer.path)[-1]
    assert instant["ph"] == "i"
    assert instant["name"] == "lease.issued"
    assert instant["args"] == {"fp": "beef", "worker": "w0"}


def test_refresh_env_gating(tmp_path, monkeypatch):
    # Unset / falsy values keep (or turn) tracing off; falsy words are
    # parsed like REPRO_STORE's, ignoring case and surrounding blanks.
    for value in (None, "0", "false", "no", "off", "", "FALSE", "Off"):
        if value is None:
            monkeypatch.delenv("REPRO_TRACE", raising=False)
        else:
            monkeypatch.setenv("REPRO_TRACE", value)
        assert obs_trace.refresh() is None, repr(value)
    # Any other word turns it on.
    for value in ("TRUE", " on "):
        monkeypatch.setenv("REPRO_TRACE", value)
        assert obs_trace.refresh() is not None, repr(value)
    # A path value selects the obs directory directly.
    obs_dir = str(tmp_path / "mylogs")
    monkeypatch.setenv("REPRO_TRACE", obs_dir)
    tracer = obs_trace.refresh()
    assert tracer is not None
    assert tracer.root == obs_dir
    # Repeated refreshes with the same value keep the same tracer.
    assert obs_trace.refresh() is tracer
    monkeypatch.delenv("REPRO_TRACE")
    assert obs_trace.refresh() is None


def test_refresh_plain_one_uses_default_dir(tmp_path, monkeypatch):
    # REPRO_OBS_DIR wins over the store-root default.
    monkeypatch.setenv("REPRO_TRACE", "1")
    monkeypatch.setenv("REPRO_OBS_DIR", str(tmp_path / "obs"))
    tracer = obs_trace.refresh()
    assert tracer.root == str(tmp_path / "obs")


def test_iter_events_skips_torn_and_junk_lines(tmp_path):
    path = tmp_path / "log.jsonl"
    good = {"ph": "X", "name": "ok", "ts": 1, "dur": 2}
    path.write_text(json.dumps(good) + "\n"
                    + '{"ph": "X", "name": "torn", "ts": 12'  # no newline,
                    )                                         # torn tail
    assert _records(str(path)) == [good]
    path.write_text("not json at all\n\n[1, 2]\n" + json.dumps(good) + "\n")
    assert _records(str(path)) == [good]


def test_iter_events_missing_file_is_empty():
    assert _records("/nonexistent/obs/log.jsonl") == []


def test_emit_survives_unwritable_root(tmp_path):
    # Observability must never fail the campaign: an unwritable obs
    # root silently drops events.
    blocked = tmp_path / "file-not-dir"
    blocked.write_text("occupied")
    tracer = Tracer(str(blocked / "obs"))
    tracer.emit({"ph": "i", "name": "dropped", "ts": 0})  # no raise
    tracer.close()
