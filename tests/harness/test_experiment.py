"""Tests for the experiment runner and aggregation helpers."""

import math

import pytest

from repro.engine.result import SimResult
from repro.harness import (
    MODELS,
    ExperimentConfig,
    geomean,
    group_geomeans,
    make_core,
    run_workload,
    selected_workloads,
    speedups_over_inorder,
)
from repro.harness.experiment import default_instructions
from repro.pipeline.stats import CoreStats
from repro.workloads import ALL_KERNELS, trace_by_name


def test_models_list_matches_paper():
    assert MODELS == ("in-order", "runahead", "multipass", "sltp", "icfp")


def test_geomean():
    assert geomean([1.0, 4.0]) == pytest.approx(2.0)
    assert geomean([2.0]) == 2.0
    assert geomean([]) == 0.0
    with pytest.raises(ValueError):
        geomean([1.0, 0.0])


def test_selected_workloads_env(monkeypatch):
    monkeypatch.delenv("REPRO_WORKLOADS", raising=False)
    assert selected_workloads() == list(ALL_KERNELS)
    monkeypatch.setenv("REPRO_WORKLOADS", "mcf_like, mesa_like")
    assert selected_workloads() == ["mcf_like", "mesa_like"]
    monkeypatch.setenv("REPRO_WORKLOADS", "doom_like")
    with pytest.raises(ValueError):
        selected_workloads()


def test_default_instructions_env(monkeypatch):
    monkeypatch.setenv("REPRO_INSTRUCTIONS", "1234")
    cfg = ExperimentConfig()
    assert cfg.instructions == 1234


@pytest.mark.parametrize("value", ["0", "-5", "abc", "1.5", ""])
def test_default_instructions_rejects_a_bad_env(monkeypatch, value):
    monkeypatch.setenv("REPRO_INSTRUCTIONS", value)
    with pytest.raises(ValueError, match="REPRO_INSTRUCTIONS"):
        default_instructions()


def test_make_core_every_model():
    trace = trace_by_name("mesa_like", 300)
    config = ExperimentConfig(instructions=300)
    for model in MODELS:
        core = make_core(model, trace, config)
        assert core.name == model
    with pytest.raises(ValueError):
        make_core("tomasulo", trace, config)


def test_machine_config_l2_latency_applied():
    cfg = ExperimentConfig(l2_hit_latency=37)
    assert cfg.machine_config().hierarchy.l2.hit_latency == 37


def test_run_workload_shares_trace_and_counts_match():
    config = ExperimentConfig(instructions=1200)
    runs = run_workload("mesa_like", models=("in-order", "icfp"),
                        config=config)
    assert runs["in-order"].instructions == 1200
    assert runs["icfp"].instructions == 1200
    assert runs["in-order"].workload == "mesa_like"


def test_speedup_helpers():
    def result(model, cycles):
        stats = CoreStats()
        stats.cycles = cycles
        stats.instructions = 100
        return SimResult(model, "w", stats)

    results = {"w": {"in-order": result("in-order", 200),
                     "icfp": result("icfp", 100)}}
    ratios = speedups_over_inorder(results, "icfp")
    assert ratios == {"w": 2.0}


def test_group_geomeans_groups():
    per = {name: 1.1 for name in ALL_KERNELS}
    means = group_geomeans(per)
    assert means["SPEC"] == pytest.approx(1.1)
    assert means["SPECfp"] == pytest.approx(1.1)
    assert means["SPECint"] == pytest.approx(1.1)


def test_simresult_cross_workload_comparison_rejected():
    stats = CoreStats()
    stats.cycles = 10
    a = SimResult("icfp", "w1", stats)
    b = SimResult("in-order", "w2", stats)
    with pytest.raises(ValueError):
        a.speedup_over(b)
