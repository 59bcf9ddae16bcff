"""Self-test of the benchmark: catalogue, contract, correctness checks.

Every workload runs once at a tiny budget, in-process, untraced and
traced; the assertions are about structure and correctness, never about
timings, so the test is as deterministic as the simulator.
"""

from __future__ import annotations

import importlib.util
import json
import os
import re
import shutil
import subprocess
import sys
from time import perf_counter

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, HERE)

import perf_layers  # noqa: E402
import perf_rep  # noqa: E402
import perf_workloads  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9_.-]+$")
TINY = {"instructions": 200, "replays": 2}


def _load_run():
    spec = importlib.util.spec_from_file_location(
        "perf_bench_run", os.path.join(HERE, "run.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


perf_run = _load_run()


@pytest.fixture(scope="module")
def bench():
    with open(os.path.join(REPO, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _owners():
    """Every (owner, attribute) the probe patches, with its original."""
    rows = [(m, c, "step_cycle") for m, c in perf_layers.STEP_OWNERS]
    rows += [(m, c, a) for m, c, a, _p in perf_layers.COMPONENTS
             + perf_layers.EXEC_CALLS + (perf_layers.COMPOSE_CALL,)]
    out = []
    for module, cls, attr in rows:
        owner = importlib.import_module(module)
        owner = getattr(owner, cls) if cls else owner
        out.append((owner, attr, getattr(owner, "__dict__", {}).get(
            attr, getattr(owner, attr))))
    return out


@pytest.fixture(scope="module")
def reps(tmp_path_factory):
    """Each workload once untraced, once traced and once set up only,
    tiny budget."""
    workdir = str(tmp_path_factory.mktemp("perf-work"))
    before = _owners()
    out = {}
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("REPRO_STORE", "0")
        for name in perf_workloads.WORKLOADS:
            for mode in ("time", "trace", "setup"):
                out[name, mode] = perf_rep.run_rep(dict(
                    TINY, workload=name, seed=0, mode=mode,
                    spawned_at=perf_counter(), workdir=workdir))
    out["patched_after"] = [
        f"{owner}.{attr}" for (owner, attr, original) in before
        if getattr(owner, "__dict__", {}).get(
            attr, getattr(owner, attr)) is not original]
    return out


def test_names_and_limits(bench):
    names = ([w["name"] for w in bench["workloads"]]
             + [m["name"] for m in bench["end_to_end"]]
             + [m["name"] for m in bench["per_layer"]])
    assert all(NAME.match(n) and len(n) <= 64 for n in names)
    assert len(names) == len(set(names))
    assert 1 <= len(bench["end_to_end"]) <= 16
    assert 1 <= len(bench["per_layer"]) <= 128
    assert 2 <= len(bench["workloads"]) <= 8


def test_benchmark_json_matches_run_py(bench):
    assert [(w["name"], w["why"]) for w in bench["workloads"]] == [
        (w.name, w.why) for w in perf_workloads.WORKLOADS.values()]
    assert [(m["name"], m["unit"], m["better"])
            for m in bench["end_to_end"]] == list(perf_run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"])
            for m in bench["per_layer"]] == list(perf_layers.LAYER_METRICS)


def test_every_layer_metric_names_what_it_moves(bench):
    e2e = {m["name"] for m in bench["end_to_end"]}
    workloads = {w["name"] for w in bench["workloads"]}
    for metric in bench["per_layer"]:
        moved, where, controls = perf_layers.moves(metric["name"])
        if moved is None:  # exact statistics and the tracer's own cost
            assert metric["name"].startswith(("model.", "trace."))
            continue
        assert moved in e2e and where, metric["name"]
        assert set(where) <= workloads and set(controls) <= workloads


def test_every_cell_is_correct_and_traced_equals_untraced(reps):
    for name in perf_workloads.WORKLOADS:
        timed, traced = reps[name, "time"], reps[name, "trace"]
        assert perf_run.judge([timed], None) == {}
        assert traced["leftovers"] == []
        assert perf_run.judge([traced], None) == {}
        assert {k: c["digest"] for k, c in timed["cells"].items()} == {
            k: c["digest"] for k, c in traced["cells"].items()}
    assert reps["patched_after"] == []


def test_run_emits_every_declared_metric(reps, bench):
    layer_names = {m["name"] for m in bench["per_layer"]}
    for name, workload in perf_workloads.WORKLOADS.items():
        assert set(reps[name, "trace"]["layers"]) == layer_names
        timed = reps[name, "time"]
        values, samples = perf_run.end_to_end([timed], {},
                                              [reps[name, "setup"]])
        assert set(values) == {m["name"] for m in bench["end_to_end"]}
        assert all(v > 0 for v in values.values()), (name, values)
        assert len(samples["setup_s"]) == 2
        assert all("seconds" in cell for cell in timed["cells"].values())
    counts = reps["miss-bound", "trace"]["layers"]
    assert counts["memory.data_access.calls_per_ki"] > 0
    assert counts["core.slice_buffer.append.calls_per_ki"] > 0
    gen = reps["gen-campaign", "trace"]["layers"]
    assert gen["wgen.compose_s"] > 0 and 0 < gen["exec.compute_frac"] < 1
    assert gen["exec.store.hits"] == 2 * 80


def _off_by_one(core):
    """``core``, its ``run`` now returning a result one cycle off."""
    run = core.run

    def run_wrong():
        result = run()
        result.stats.cycles += 1
        return result
    core.run = run_wrong
    return core


def test_wrong_result_counts_as_failed(reps, monkeypatch, tmp_path):
    import repro.harness.experiment as experiment

    monkeypatch.setenv("REPRO_STORE", "0")
    good = reps["hit-bound", "time"]
    real = experiment.make_core

    def wrong_make_core(model, trace, config):
        core = real(model, trace, config)
        return _off_by_one(core) if model == "icfp" else core

    monkeypatch.setattr(experiment, "make_core", wrong_make_core)
    bad = perf_rep.run_rep(dict(TINY, workload="hit-bound", seed=0,
                                mode="time", spawned_at=perf_counter(),
                                workdir=str(tmp_path)))
    icfp = {k for k in good["cells"] if k.endswith("/icfp")}
    assert set(perf_run.judge([good, bad], None)) == icfp
    pins = {k: c["digest"] for k, c in good["cells"].items()}
    assert set(perf_run.judge([bad], pins)) == icfp


def test_seed_changes_named_and_generated_traces():
    from repro.wgen import build_workload
    from repro.workloads.suite import trace_kernel

    def addresses(trace):
        return [d.addr for d in trace.insts if d.addr is not None]

    for seed in (1, 7):
        assert addresses(perf_workloads.named_trace("gcc_like", 0, 200)) != \
            addresses(perf_workloads.named_trace("gcc_like", seed, 200))
        workload = perf_workloads.WORKLOADS["gen-campaign"]
        base = perf_workloads.generated_specs(workload, 0)[0]
        moved = perf_workloads.generated_specs(workload, seed)[0]
        assert base.name == moved.name and base != moved
        assert (addresses(trace_kernel(build_workload(base), 200))
                != addresses(trace_kernel(build_workload(moved), 200)))


def test_profile_top_rows_map_to_layer_metrics(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_STORE", "0")
    rows = perf_rep.run_rep(dict(TINY, workload="fig5-grid", seed=0,
                                 mode="profile", spawned_at=perf_counter(),
                                 workdir=str(tmp_path)))["rows"]
    catalogue = {name for name, _u, _b in perf_layers.LAYER_METRICS}
    assert len(rows) == 25
    assert all(row["metric"] in catalogue for row in rows[:10]), rows[:10]


def _run_main(monkeypatch, capsys, argv) -> tuple[int, dict]:
    """``run.main`` with each repetition run in-process at the tiny
    budget; its exit code and the JSON object on its last line."""
    monkeypatch.setenv("REPRO_STORE", "0")
    monkeypatch.setattr(perf_run, "spawn", lambda request, workdir: (
        perf_rep.run_rep(dict(request, **TINY, workdir=workdir,
                              spawned_at=perf_counter()))))
    code = perf_run.main(argv)
    return code, json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_cli_contract(monkeypatch, capsys, tmp_path):
    """The command line: the last line is the result JSON, with every
    declared metric; without the simulator sources the run fails before
    printing one."""
    argv = ["--workload", "hit-bound", "--seed", "2", "--seconds", "0",
            "--trace", "0"]
    code, result = _run_main(monkeypatch, capsys, argv)
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] == 40
    assert [(name, m["unit"]) for name, m in result["metrics"].items()] == [
        (name, unit) for name, unit, _better in perf_run.END_TO_END]

    bare = tmp_path / "bare"
    shutil.copytree(HERE, bare / "benchmarks" / "perf",
                    ignore=shutil.ignore_patterns("__pycache__", ".work"))
    shutil.copy(os.path.join(REPO, "BENCHMARK.json"), bare)
    proc = subprocess.run(
        [sys.executable, str(bare / "benchmarks" / "perf" / "run.py")] + argv,
        cwd=bare, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0 and not proc.stdout.strip()


def test_wrong_traced_cell_still_reports(monkeypatch, capsys):
    """A cell whose traced result differs from its untraced one fails the
    run, which still ends in its JSON line."""
    import repro.harness.experiment as experiment
    from repro.obs import trace as obs_trace

    real = experiment.make_core
    wrong = []

    def make_core(model, trace, config):
        core = real(model, trace, config)
        if model == "icfp" and obs_trace.enabled() and not wrong:
            wrong.append(_off_by_one(core))
        return core

    monkeypatch.setattr(experiment, "make_core", make_core)
    code, result = _run_main(monkeypatch, capsys, [
        "--workload", "hit-bound", "--seed", "1", "--seconds", "0",
        "--trace", "1"])
    assert code == 0 and len(wrong) == 1
    assert not result["correct"] and result["failed"] == 1
    assert result["attempted"] == 40
    assert result["metrics"]["model.icfp.speedup_gmean"]["value"] > 0
