"""Unit tests for statistics (MLP meter), ports, and config."""

import dataclasses

import pytest

from repro.isa.instructions import OpClass
from repro.pipeline import (
    CoreStats,
    MachineConfig,
    MLPMeter,
    StallBreakdown,
    port_kind,
)


# ----------------------------------------------------------------------
# MLP meter
# ----------------------------------------------------------------------
def test_mlp_empty_is_zero():
    assert MLPMeter().average() == 0.0


def test_mlp_single_interval_is_one():
    m = MLPMeter()
    m.add(0, 100)
    assert m.average() == pytest.approx(1.0)


def test_mlp_fully_overlapped_pair_is_two():
    m = MLPMeter()
    m.add(0, 100)
    m.add(0, 100)
    assert m.average() == pytest.approx(2.0)


def test_mlp_disjoint_pair_is_one():
    m = MLPMeter()
    m.add(0, 100)
    m.add(200, 300)
    assert m.average() == pytest.approx(1.0)


def test_mlp_partial_overlap():
    m = MLPMeter()
    m.add(0, 100)   # alone for 50, overlapped for 50
    m.add(50, 150)  # overlapped 50, alone 50
    # 150 active cycles, 200 miss-cycles -> 4/3.
    assert m.average() == pytest.approx(4.0 / 3.0)


def test_mlp_ignores_empty_intervals():
    m = MLPMeter()
    m.add(5, 5)
    assert m.count == 0
    assert m.average() == 0.0


def test_mlp_many_overlapping_staircase():
    m = MLPMeter()
    for i in range(4):
        m.add(i * 10, 100)
    avg = m.average()
    assert 2.0 < avg < 4.0


# ----------------------------------------------------------------------
# ports
# ----------------------------------------------------------------------
def test_port_kinds():
    assert port_kind(OpClass.INT_ALU) == "int"
    assert port_kind(OpClass.INT_MUL) == "int"
    assert port_kind(OpClass.FP_ADD) == "mem"
    assert port_kind(OpClass.LOAD) == "mem"
    assert port_kind(OpClass.BRANCH) == "mem"


# ----------------------------------------------------------------------
# stats containers
# ----------------------------------------------------------------------
def test_corestats_derived_metrics():
    stats = CoreStats()
    stats.cycles = 200
    stats.instructions = 100
    stats.l1d_misses = 5
    stats.l2_misses = 2
    stats.rally_instructions = 30
    stats.loads = 50
    stats.store_forward_hops = 10
    assert stats.ipc == pytest.approx(0.5)
    assert stats.misses_per_ki() == (50.0, 20.0)
    assert stats.rallies_per_ki() == pytest.approx(300.0)
    assert stats.hops_per_load() == pytest.approx(0.2)


def test_corestats_zero_division_guards():
    stats = CoreStats()
    assert stats.ipc == 0.0
    assert stats.misses_per_ki() == (0.0, 0.0)
    assert stats.rallies_per_ki() == 0.0
    assert stats.hops_per_load() == 0.0


def test_stall_breakdown_total():
    stalls = StallBreakdown(src_wait=3, port=2, mshr_full=1)
    assert stalls.total() == 6


# ----------------------------------------------------------------------
# config
# ----------------------------------------------------------------------
def test_machine_config_table1_defaults():
    cfg = MachineConfig.hpca09()
    assert cfg.width == 2
    assert cfg.int_ports == 2 and cfg.mem_ports == 1
    assert cfg.frontend_depth == 5  # 3 I$ + decode + reg-read
    assert cfg.store_buffer_entries == 32
    assert cfg.hierarchy.l2.hit_latency == 20
    assert cfg.hierarchy.memory_latency == 400


def test_l2_latency_moves_only_the_l2():
    cfg = MachineConfig.hpca09()
    slow = MachineConfig.hpca09(l2_hit_latency=44)
    assert slow.hierarchy.l2.hit_latency == 44
    assert cfg.hierarchy.l2.hit_latency == 20
    assert slow.hierarchy.l1d == cfg.hierarchy.l1d
    assert dataclasses.replace(slow, hierarchy=cfg.hierarchy) == cfg
