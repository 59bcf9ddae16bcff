"""FaultPlan: parsing, determinism, and process-wide activation."""

import pytest

from repro.exec.faults import (
    FAULT_KINDS,
    FaultInjector,
    FaultPlan,
    active_injector,
    injected_faults,
    set_fault_plan,
)


def test_parse_basic_spec():
    plan = FaultPlan.parse("seed=7,worker_death=0.1,store_truncate=0.05")
    assert plan.seed == 7
    assert plan.worker_death == 0.1
    assert plan.store_truncate == 0.05
    assert plan.slow == 0.0
    assert [kind for kind in FAULT_KINDS if getattr(plan, kind)] == [
        "worker_death", "store_truncate"]


def test_parse_accepts_dashes_and_whitespace():
    plan = FaultPlan.parse(" worker-death = 0.5 , slow-seconds = 0.1 ")
    assert plan.worker_death == 0.5
    assert plan.slow_seconds == 0.1


def test_parse_empty_parts_and_defaults():
    assert FaultPlan.parse("") == FaultPlan()
    assert FaultPlan.parse("seed=3,") == FaultPlan(seed=3)
    assert not any(getattr(FaultPlan(), kind) for kind in FAULT_KINDS)
    # slow_seconds alone is a parameter, not a fault rate
    assert not any(getattr(FaultPlan(slow_seconds=9.0), kind)
                   for kind in FAULT_KINDS)


@pytest.mark.parametrize("bad", ["banana=1", "worker_death", "seed=x",
                                 "worker_death=fast"])
def test_parse_rejects_bad_specs(bad):
    with pytest.raises(ValueError, match="bad fault spec"):
        FaultPlan.parse(bad)


def test_to_env_round_trips():
    plan = FaultPlan(seed=9, worker_death=0.25, slow=0.5, slow_seconds=0.3)
    assert FaultPlan.parse(plan.to_env()) == plan
    assert FaultPlan().to_env() == ""


def test_roll_is_deterministic_and_rate_bounded():
    plan = FaultPlan(seed=42, slow=0.3)
    verdicts = [plan.roll("slow", f"key{i}", 1) for i in range(400)]
    assert verdicts == [plan.roll("slow", f"key{i}", 1)
                        for i in range(400)]
    rate = sum(verdicts) / len(verdicts)
    assert 0.15 < rate < 0.45  # Bernoulli(0.3) over 400 independent keys
    # edge rates need no hashing at all
    assert not FaultPlan(slow=0.0).roll("slow", "k", 1)
    assert FaultPlan(slow=1.0).roll("slow", "k", 1)


def test_roll_varies_with_seed_kind_and_ordinal():
    base = FaultPlan(seed=0, worker_death=0.5, slow=0.5)
    keys = [f"key{i}" for i in range(64)]

    def pattern(plan, kind, ordinal):
        return tuple(plan.roll(kind, k, ordinal) for k in keys)

    assert pattern(base, "worker_death", 1) != pattern(
        FaultPlan(seed=1, worker_death=0.5), "worker_death", 1)
    assert pattern(base, "worker_death", 1) != pattern(base, "slow", 1)
    assert pattern(base, "worker_death", 1) != pattern(
        base, "worker_death", 2)


def test_injector_counts_cover_all_kinds():
    injector = FaultInjector(FaultPlan())
    assert set(injector.counts) == set(FAULT_KINDS)


def test_env_activation(monkeypatch):
    monkeypatch.delenv("REPRO_FAULTS", raising=False)
    assert active_injector() is None
    monkeypatch.setenv("REPRO_FAULTS", "seed=3,store_corrupt=0.2")
    injector = active_injector()
    assert injector is not None
    assert injector.plan == FaultPlan(seed=3, store_corrupt=0.2)
    # same value -> same cached injector (counters survive)
    assert active_injector() is injector
    monkeypatch.setenv("REPRO_FAULTS", "seed=4")
    assert active_injector().plan == FaultPlan(seed=4)
    monkeypatch.setenv("REPRO_FAULTS", "")
    assert active_injector() is None


def test_env_bad_spec_raises(monkeypatch):
    monkeypatch.setenv("REPRO_FAULTS", "nope=1")
    with pytest.raises(ValueError, match="REPRO_FAULTS"):
        active_injector()
    monkeypatch.setenv("REPRO_FAULTS", "")


def test_override_beats_env_and_restores(monkeypatch):
    monkeypatch.setenv("REPRO_FAULTS", "seed=1,slow=0.1")
    plan = FaultPlan(seed=2, worker_death=0.9)
    with injected_faults(plan) as injector:
        assert active_injector() is injector
        assert injector.plan is plan
    assert active_injector().plan == FaultPlan(seed=1, slow=0.1)
    monkeypatch.setenv("REPRO_FAULTS", "")
    assert active_injector() is None


def test_set_fault_plan_install_and_remove():
    injector = set_fault_plan(FaultPlan(seed=8, slow=1.0))
    try:
        assert active_injector() is injector
    finally:
        assert set_fault_plan(None) is None
