"""The observability CLI surface: --trace/--report and obs."""

import json
import os

import pytest

from repro.harness.cli import _human_bytes, build_parser, main


def run_cli(capsys, *argv):
    assert main(list(argv)) == 0
    return capsys.readouterr()


def store_root():
    return os.environ["REPRO_CACHE_DIR"]  # per-test tmpdir (conftest)


def test_parser_knows_the_obs_surface():
    parser = build_parser()
    text = parser.format_help()
    assert "obs" in text
    args = parser.parse_args(["run", "mesa_like", "icfp", "--trace",
                              "--report"])
    assert args.trace and args.report
    args = parser.parse_args(["obs", "export", "--chrome", "-o", "t.json"])
    assert args.action == "export" and args.chrome


def test_human_bytes():
    assert _human_bytes(0) == "0 B"
    assert _human_bytes(512) == "512 B"
    assert _human_bytes(1536) == "1.5 KiB"
    assert _human_bytes(3 * 1024 * 1024) == "3.0 MiB"
    assert _human_bytes(2 ** 31) == "2.0 GiB"


def test_trace_flag_records_and_obs_commands_read_back(capsys):
    run_cli(capsys, "run", "mesa_like", "in-order", "-n", "400", "-j", "1",
            "--trace")
    obs_dir = os.path.join(store_root(), "obs")
    assert os.path.isdir(obs_dir)

    out = run_cli(capsys, "obs", "summary").out
    assert "campaign" in out and "job" in out
    assert "campaign.computed" in out

    out = run_cli(capsys, "obs", "export", "--chrome").out
    assert "wrote" in out and "Perfetto" in out
    path = os.path.join(obs_dir, "trace.chrome.json")
    with open(path, encoding="utf-8") as handle:
        doc = json.load(handle)
    assert doc["traceEvents"]

    # Explicit output path + obs dir selection.
    alt = os.path.join(store_root(), "alt.json")
    out = run_cli(capsys, "obs", "export", "--chrome", "-o", alt,
                  "--obs-dir", obs_dir).out
    assert os.path.exists(alt)


def test_obs_commands_refuse_empty_logs():
    for action in ("export", "summary"):
        with pytest.raises(SystemExit, match="no obs logs"):
            main(["obs", action])


def test_report_flag_prints_summary_without_incidents(capsys):
    # Unique budget: the RAM memo is process-global, and a memo hit
    # would report "0 computed".
    captured = run_cli(capsys, "run", "mesa_like", "in-order", "-n", "401",
                       "-j", "1", "--report")
    assert "campaign:" in captured.err
    assert "1 computed" in captured.err


def test_report_env_knob(capsys, monkeypatch):
    monkeypatch.setenv("REPRO_REPORT", "1")
    captured = run_cli(capsys, "run", "mesa_like", "in-order", "-n", "420",
                       "-j", "1")
    assert "campaign:" in captured.err


def test_quiet_by_default(capsys):
    captured = run_cli(capsys, "run", "mesa_like", "in-order", "-n", "440",
                       "-j", "1")
    assert "campaign:" not in captured.err


def test_cache_stats_human_sizes_and_hit_rate(capsys):
    run_cli(capsys, "run", "mesa_like", "in-order", "-n", "460", "-j", "1")
    run_cli(capsys, "run", "mesa_like", "in-order", "-n", "460", "-j", "1")
    out = run_cli(capsys, "cache", "stats").out
    assert "KiB" in out or " B" in out
