"""Unit tests for the PPM direction predictor."""

import pytest

from repro.branch import PPMPredictor


def train(ppm, pc, outcomes):
    for taken in outcomes:
        ppm.predict(pc)
        ppm.update(pc, taken)


def test_rejects_non_power_of_two_tables():
    with pytest.raises(ValueError):
        PPMPredictor(base_entries=1000)


def test_learns_always_taken():
    ppm = PPMPredictor()
    train(ppm, 0x1000, [True] * 10)
    assert ppm.predict(0x1000) is True


def test_learns_always_not_taken():
    ppm = PPMPredictor()
    train(ppm, 0x1000, [False] * 10)
    assert ppm.predict(0x1000) is False


def test_learns_loop_exit_pattern():
    """A loop branch taken N-1 times then not taken once: the tagged
    history tables should learn the exit after a few iterations."""
    ppm = PPMPredictor()
    pattern = ([True] * 7 + [False]) * 40
    for taken in pattern:
        ppm.predict(0x2000)
        ppm.update(0x2000, taken)
    # Replay one loop worth and check the exit is predicted.
    correct = 0
    for taken in [True] * 7 + [False]:
        if ppm.predict(0x2000) == taken:
            correct += 1
        ppm.update(0x2000, taken)
    assert correct == 8


def test_alternating_pattern_learned_by_history_tables():
    ppm = PPMPredictor()
    pattern = [True, False] * 100
    for taken in pattern:
        ppm.predict(0x3000)
        ppm.update(0x3000, taken)
    hits = 0
    for taken in [True, False] * 10:
        if ppm.predict(0x3000) == taken:
            hits += 1
        ppm.update(0x3000, taken)
    assert hits >= 18


def test_accuracy_metric():
    ppm = PPMPredictor()
    correct = 0
    for _ in range(100):
        correct += ppm.predict(0x1000) is True
        ppm.update(0x1000, True)
    assert 90 <= correct <= 100


def test_distinct_branches_do_not_interfere():
    ppm = PPMPredictor()
    train(ppm, 0x1000, [True] * 10)
    train(ppm, 0x2000, [False] * 10)
    assert ppm.predict(0x1000) is True
    assert ppm.predict(0x2000) is False


def test_random_pattern_accuracy_is_mediocre():
    import random

    rng = random.Random(7)
    ppm = PPMPredictor()
    outcomes = [rng.random() < 0.5 for _ in range(2000)]
    correct = 0
    for taken in outcomes:
        if ppm.predict(0x4000) == taken:
            correct += 1
        ppm.update(0x4000, taken)
    assert correct / len(outcomes) < 0.7  # cannot learn noise
