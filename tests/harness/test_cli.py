"""Tests for the command-line interface."""

import os
import re

import pytest

from repro.exec.store import ENGINE_VERSION, STORE_SCHEMA
from repro.harness.cli import build_parser, main


def run_cli(capsys, *argv):
    assert main(list(argv)) == 0
    return capsys.readouterr().out


def test_parser_has_all_commands():
    parser = build_parser()
    text = parser.format_help()
    for command in ("characterize", "figure5", "figure6", "figure7",
                    "figure8", "table2", "scenarios", "area", "sweep", "run",
                    "cache", "phases"):
        assert command in text


def test_area_command(capsys):
    out = run_cli(capsys, "area")
    assert "icfp" in out and "mm^2" in out


@pytest.mark.parametrize("argv", [
    ("scenarios", "-n", "5"),
    ("scenarios", "--l2-latency", "40"),
    ("scenarios", "-j", "2"),
    ("area", "--cold"),
    ("characterize", "-j", "2"),
    ("characterize", "--faults", "slow=1"),
    ("characterize", "--trace"),
    ("figure5", "--retries", "2"),
    ("wgen", "generate", "--l2-latency", "40"),
    ("wgen", "generate", "-n", "5"),
    ("wgen", "generate", "-w", "mcf_like"),
    ("wgen", "characterize", "--cold"),
    ("wgen", "characterize", "-N", "3"),
    ("wgen", "characterize", "-o", "x.json"),
    ("wgen", "list", "-j", "2"),
    ("wgen", "list", "-n", "5"),
    ("wgen", "list", "--seed", "3"),
], ids=" ".join)
def test_fixed_tables_reject_campaign_flags(argv):
    """A command accepts only the knobs that change what it prints:
    Figure 1 and the area table take none, `characterize` (one
    in-process in-order run per kernel) no campaign knob, and each
    `wgen` action (functional only) just its own: `generate` the
    generator's, `characterize` -n and -w, `list` -w.  Accepting one
    would print the same output silently.  No command takes the retired
    `--retries`."""
    with pytest.raises(SystemExit) as excinfo:
        main(list(argv))
    assert excinfo.value.code == 2


#: Every subcommand that takes a budget (-n) and, unless marked False,
#: an L2 latency, with the positional arguments it requires.
_BUDGETED = (
    (("characterize",), True), (("figure5",), True), (("figure6",), True),
    (("figure7",), True), (("figure8",), True), (("table2",), True),
    (("phases",), True), (("sweep", "chain-table"), True),
    (("run", "mesa_like", "icfp"), True), (("wgen", "characterize"), False),
)


@pytest.mark.parametrize("argv", [
    (*command, option, value)
    for command, machine in _BUDGETED
    for option in (("-n", "--l2-latency") if machine else ("-n",))
    for value in ("0", "-5")
], ids=" ".join)
def test_non_positive_budgets_and_latencies_are_rejected(argv, capsys):
    """A zero or negative budget or L2 hit latency is refused before
    any simulation runs (it used to simulate a grid, then fail in
    geomean, or print 0-cycle and 0.0 results)."""
    with pytest.raises(SystemExit) as excinfo:
        main(list(argv))
    assert excinfo.value.code == 2
    assert "must be >= 1, got" in capsys.readouterr().err


def test_positive_budgets_and_latencies_parse():
    args = build_parser().parse_args(
        ["figure5", "-n", "1", "--l2-latency", "1"])
    assert (args.instructions, args.l2_latency) == (1, 1)


#: Every subcommand that takes the campaign flags, with the positional
#: arguments it requires.
_CAMPAIGNS = (("figure5",), ("figure6",), ("figure7",), ("figure8",),
              ("table2",), ("phases",), ("sweep", "chain-table"),
              ("run", "mesa_like", "in-order"))


@pytest.mark.parametrize("argv, message", [
    pytest.param((*command, *flag), message, id=" ".join((*command, *flag)))
    for command in _CAMPAIGNS
    for flag, message in (
        (("-j", "0"), "must be >= 1, got"),
        (("--jobs", "-2"), "must be >= 1, got"),
        (("--timeout", "0"), "must be > 0, got"),
        (("--timeout", "-1"), "must be > 0, got"),
        (("--timeout", "nan"), "must be > 0, got"),
    )
])
def test_non_positive_jobs_and_timeouts_are_rejected(argv, message, capsys):
    """A worker count below one and a timeout that is not positive are
    refused before any simulation runs (`-j 0` used to become 1, and a
    non-positive timeout ran with no per-job deadline at all)."""
    with pytest.raises(SystemExit) as excinfo:
        main(list(argv))
    assert excinfo.value.code == 2
    assert message in capsys.readouterr().err


def test_positive_jobs_and_timeouts_parse():
    args = build_parser().parse_args(
        ["run", "mesa_like", "in-order", "-j", "1", "--timeout", "0.5"])
    assert (args.jobs, args.timeout) == (1, 0.5)


def test_run_command_single_model(capsys):
    out = run_cli(capsys, "run", "mesa_like", "icfp", "-n", "800")
    assert "icfp" in out and "cycles" in out


def test_run_command_counts_fallbacks(capsys):
    """The bracket counts simple-runahead fallbacks, which mcf_like's
    iCFP run enters (its advance count alone hides them)."""
    out = run_cli(capsys, "run", "mcf_like", "icfp", "-n", "800")
    fallbacks = int(re.search(r"fallback (\d+)\]", out).group(1))
    assert fallbacks > 0


def test_run_command_all_models(capsys):
    out = run_cli(capsys, "run", "vortex_like", "all", "-n", "600")
    for model in ("in-order", "runahead", "multipass", "sltp", "icfp"):
        assert model in out


def test_characterize_subset(capsys):
    out = run_cli(capsys, "characterize", "-w", "mesa_like", "-n", "800")
    assert "mesa_like" in out and "D$/KI" in out


def test_table2_subset(capsys):
    out = run_cli(capsys, "table2", "-w", "mesa_like", "-n", "800")
    assert "Rally/KI" in out


def test_figure5_subset(capsys):
    out = run_cli(capsys, "figure5", "-w", "mesa_like,vortex_like",
                  "-n", "600")
    assert "gmean SPEC" in out


def test_phases_command_breaks_down_generated_workloads(capsys):
    out = run_cli(capsys, "phases", "-w", "gen:2:42", "-m", "icfp",
                  "-n", "600", "-j", "1")
    assert "Per-phase attribution" in out
    # gen:2:42's first spec is multi-phase: per-phase rows plus a total.
    assert "p0:" in out and "p1:" in out and "total" in out


def test_phases_command_requires_workloads():
    with pytest.raises(SystemExit):
        main(["phases"])


def test_run_command_prints_phase_breakdown(capsys):
    out = run_cli(capsys, "run", "-w", "gen:2:42", "gen42_00", "icfp",
                  "-n", "600", "-j", "1")
    assert "p0:" in out and "p1:" in out


def test_unknown_kernel_rejected():
    with pytest.raises(SystemExit):
        main(["characterize", "-w", "quake_like"])


def test_run_rejects_unknown_model():
    with pytest.raises(SystemExit):
        main(["run", "mesa_like", "tomasulo"])


def test_main_leaves_the_environment_as_it_found_it(capsys):
    """Options reach the engine as REPRO_* variables; an in-process
    main() restores them, and the tracer --trace switched on, when it
    returns."""
    from repro.obs import trace as obs_trace

    def repro_env():
        return {name: value for name, value in os.environ.items()
                if name.startswith("REPRO_")}

    before = repro_env()
    run_cli(capsys, "run", "mesa_like", "in-order", "-n", "300", "-j", "1",
            "--no-store", "--no-leap", "--report", "--trace")
    assert repro_env() == before
    assert obs_trace.TRACER is None


def test_failed_cell_prints_the_campaign_report(capsys, monkeypatch):
    """A failed cell still ends the command with its exception, but the
    campaign report comes first: what finished, and every cell that
    failed, not only the one the exception names."""
    from repro.harness import experiment

    real_make_core = experiment.make_core

    def make_core(model, trace, config):
        if model == "icfp":
            raise RuntimeError("injected icfp failure")
        return real_make_core(model, trace, config)

    monkeypatch.setattr(experiment, "make_core", make_core)
    with pytest.raises(RuntimeError, match="injected icfp failure"):
        main(["figure5", "-n", "300", "-w", "mesa_like,gzip_like", "-j", "1",
              "--no-store"])
    err = capsys.readouterr().err
    assert "campaign: 10 jobs, 8 computed" in err
    failed = sorted(line.split("[")[0].strip()
                    for line in err.splitlines()
                    if line.startswith("  failed: "))
    assert failed == ["failed: icfp on gzip_like", "failed: icfp on mesa_like"]


# ----------------------------------------------------------------------
# the disk store through the CLI
# ----------------------------------------------------------------------
def store_root():
    return os.environ["REPRO_CACHE_DIR"]  # per-test tmpdir (conftest)


def test_campaign_populates_store_and_cache_stats_reports_it(capsys):
    run_cli(capsys, "run", "mesa_like", "icfp", "-n", "400", "-j", "1")
    out = run_cli(capsys, "cache", "stats")
    assert "results" in out
    assert os.path.isdir(os.path.join(store_root(), f"v{STORE_SCHEMA}",
                                  ENGINE_VERSION, "results"))


def test_no_store_flag_disables_result_records(capsys):
    run_cli(capsys, "run", "mesa_like", "icfp", "-n", "400", "-j", "1",
            "--no-store")
    assert not os.path.exists(os.path.join(store_root(), f"v{STORE_SCHEMA}"))


def test_cache_clear_empties_the_store(capsys):
    run_cli(capsys, "run", "mesa_like", "in-order", "-n", "400", "-j", "1")
    out = run_cli(capsys, "cache", "clear")
    assert "cleared" in out
    out = run_cli(capsys, "cache", "stats")
    total_line = next(line for line in out.splitlines() if "total" in line)
    assert total_line.split()[1] == "0"


def test_cache_gc_requires_older_than(capsys):
    with pytest.raises(SystemExit):
        main(["cache", "gc"])
    out = run_cli(capsys, "cache", "gc", "--older-than", "30")
    assert "gc:" in out


def stored_results(capsys) -> int:
    out = run_cli(capsys, "cache", "stats")
    return int(next(line for line in out.splitlines()
                    if "total" in line).split()[1])


@pytest.mark.parametrize("age", ["-1", "-0.5", "nan"])
def test_cache_gc_rejects_a_negative_age(capsys, age):
    """A negative age puts gc's cut-off in the future, which would
    expire every current record: the parser refuses it and the store
    keeps its records."""
    run_cli(capsys, "run", "mesa_like", "in-order", "-n", "400", "-j", "1")
    assert stored_results(capsys) == 1
    with pytest.raises(SystemExit) as excinfo:
        main(["cache", "gc", "--older-than", age])
    assert excinfo.value.code == 2
    assert "must be >= 0, got" in capsys.readouterr().err
    assert stored_results(capsys) == 1


@pytest.mark.slow
@pytest.mark.parametrize("jobs", ["1", "2"])
def test_sigint_mid_campaign_exits_130_with_a_report(tmp_path, jobs):
    import signal
    import subprocess
    import sys as _sys
    import time

    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    env = dict(os.environ,
               PYTHONPATH=os.path.abspath(src),
               REPRO_CACHE_DIR=str(tmp_path / "store"),
               # crawl so the interrupt lands mid-campaign
               REPRO_FAULTS="slow=1.0,slow_seconds=0.4",
               REPRO_JOBS=jobs)
    # Three workloads, not one: two pool workers would finish
    # mesa_like's five cells alone before the 2 s interrupt.
    proc = subprocess.Popen(
        [_sys.executable, "-m", "repro", "figure5", "-w",
         "mesa_like,gzip_like,crafty_like", "-n", "600"],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        start_new_session=True)
    try:
        time.sleep(2.0)
        os.killpg(os.getpgid(proc.pid), signal.SIGINT)
        _, err = proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:  # pragma: no cover - defensive
            proc.kill()
            proc.communicate()
    assert proc.returncode == 130
    text = err.decode()
    assert "campaign: interrupted" in text
    assert "Traceback" not in text


#: Run in a fresh interpreter: the modules ``import repro.harness.cli``
#: adds on top of whatever interpreter start-up (site hooks included)
#: already loaded.
_FOOTPRINT_PROBE = """
import json, sys
before = set(sys.modules)
import repro.harness.cli
print(json.dumps(sorted(set(sys.modules) - before)))
"""


def test_cli_import_pulls_in_only_stdlib_and_repro():
    """Importing the CLI loads nothing from outside the standard library
    and this package: no third-party import rides along on every run."""
    import json
    import subprocess
    import sys as _sys

    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    out = subprocess.run([_sys.executable, "-c", _FOOTPRINT_PROBE], env=env,
                         capture_output=True, text=True, check=True).stdout
    added = json.loads(out)
    assert any(name.startswith("repro.") for name in added)
    foreign = [name for name in added
               if name.split(".")[0] not in _sys.stdlib_module_names
               and name.split(".")[0] != "repro"
               and name != "__mp_main__"]  # multiprocessing's alias
    assert foreign == []
