"""Unit tests for BTB, RAS, and the combined predictor facade."""

import pytest

from repro.branch import BTB, RAS, BranchPredictor
from repro.functional import run_program
from repro.isa import assemble_text


# ----------------------------------------------------------------------
# BTB
# ----------------------------------------------------------------------
def test_btb_miss_then_hit():
    btb = BTB(entries=16)
    assert btb.predict(0x1000) is None
    btb.update(0x1000, 0x2000)
    assert btb.predict(0x1000) == 0x2000
    assert btb.predict(0x1004) is None  # a neighbour's entry is its own


def test_btb_conflict_eviction():
    btb = BTB(entries=4)
    btb.update(0x1000, 0xA)
    btb.update(0x1000 + 4 * 4, 0xB)  # same index, different tag
    assert btb.predict(0x1000) is None
    assert btb.predict(0x1000 + 16) == 0xB


def test_btb_rejects_non_power_of_two():
    with pytest.raises(ValueError):
        BTB(entries=3)


# ----------------------------------------------------------------------
# RAS
# ----------------------------------------------------------------------
def test_ras_push_pop_lifo():
    ras = RAS(entries=4)
    ras.push(0x10)
    ras.push(0x20)
    assert ras.pop() == 0x20
    assert ras.pop() == 0x10
    assert ras.pop() is None


def test_ras_overflow_wraps():
    ras = RAS(entries=2)
    ras.push(1)
    ras.push(2)
    ras.push(3)  # overwrites 1
    assert ras.pop() == 3
    assert ras.pop() == 2
    assert len(ras) == 0


# ----------------------------------------------------------------------
# facade over real traces
# ----------------------------------------------------------------------
def trace_of(text):
    return run_program(assemble_text(text))


def test_facade_direct_jumps_always_correct():
    trace = trace_of(
        """
        j next
        next: halt
        """
    )
    bp = BranchPredictor()
    jump = next(d for d in trace if d.is_control)
    assert bp.predict(jump) is True


def test_facade_call_return_via_ras():
    trace = trace_of(
        """
        jal r31, func
        halt
        func: jr r31
        """
    )
    bp = BranchPredictor()
    for dyn in trace:
        if dyn.is_control:
            assert bp.predict(dyn) is True
            bp.update(dyn)


def test_facade_learns_loop_branch():
    trace = trace_of(
        """
        li r1, 0
        li r2, 50
        loop:
            addi r1, r1, 1
            bne r1, r2, loop
        halt
        """
    )
    bp = BranchPredictor()
    outcomes = []
    for dyn in trace:
        if dyn.is_branch:
            outcomes.append(bp.predict(dyn))
            bp.update(dyn)
    # After warm-up the backward loop branch is predicted correctly.
    assert sum(outcomes[5:]) >= len(outcomes[5:]) - 2
    assert sum(outcomes) / len(outcomes) > 0.8


def test_facade_return_without_call_uses_btb():
    trace = trace_of(
        """
        li r1, 0x1014
        jr r1
        nop
        nop
        nop
        halt
        """
    )
    bp = BranchPredictor()
    jr = next(d for d in trace if d.op.value == "jr")
    assert bp.predict(jr) is False  # RAS empty, BTB cold
    bp.update(jr)
    assert bp.predict(jr) is True  # BTB now holds the target
