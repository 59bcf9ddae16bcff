"""Unit tests for the multiprocessor-safety load signature."""

import pytest

from repro.core.signature import LoadSignature


def test_rejects_bad_geometry():
    with pytest.raises(ValueError):
        LoadSignature(bits=1000)
    with pytest.raises(ValueError):
        LoadSignature(hashes=0)


def test_insert_then_probe_hits():
    sig = LoadSignature()
    sig.insert(0x2000)
    occupancy = sig.occupancy()
    assert sig.probe(0x2000)
    assert sig.occupancy() == occupancy  # probes never set bits


def test_probe_miss_on_unrelated_address():
    sig = LoadSignature(bits=4096)
    sig.insert(0x2000)
    assert not sig.probe(0x90_0008)


def test_clear_resets():
    sig = LoadSignature()
    sig.insert(0x2000)
    sig.clear()
    assert sig.empty
    assert not sig.probe(0x2000)


def test_false_positives_possible_but_bounded():
    """Bloom behaviour: a loaded-up signature may false-positive, but an
    almost-empty one should not."""
    sig = LoadSignature(bits=1024)
    for i in range(64):
        sig.insert(0x4000 + 8 * i)
    assert sig.occupancy() < 0.3
    # Every inserted address must hit (no false negatives).
    assert all(sig.probe(0x4000 + 8 * i) for i in range(64))


def test_occupancy_monotone():
    sig = LoadSignature(bits=1024)
    prev = 0.0
    for i in range(16):
        sig.insert(0x1000 * (i + 1))
        occ = sig.occupancy()
        assert occ >= prev
        prev = occ
