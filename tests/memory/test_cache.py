"""Unit tests for the set-associative cache model."""

import pytest

from repro.memory import Cache, CacheConfig


def small_cache(assoc=2, sets=4, line=64):
    return Cache(CacheConfig("t", assoc * sets * line, assoc, line, 3))


def test_config_geometry():
    cfg = CacheConfig("l1", 32 * 1024, 4, 64, 3)
    assert cfg.num_sets == 128
    assert cfg.line_addr(0x1234) == 0x1234 // 64
    assert cfg.set_index(cfg.line_addr(0x1234)) == (0x1234 // 64) % 128


def test_config_rejects_bad_geometry():
    with pytest.raises(ValueError):
        CacheConfig("bad", 1000, 3, 64, 1)
    with pytest.raises(ValueError):
        CacheConfig("bad", 3 * 64 * 3, 3, 64, 1)  # non power-of-two sets


def test_miss_then_hit():
    c = small_cache()
    c.insert(1)
    before = c.export_sets()
    assert not c.lookup(5)
    assert c.export_sets() == before  # a miss changes nothing
    c.insert(5)
    assert c.lookup(5)


def test_lru_eviction_order():
    c = small_cache(assoc=2, sets=1)
    c.insert(0)
    c.insert(1)
    assert c.lookup(0)  # promote 0 to MRU
    victim = c.insert(2)
    assert victim == (1, False)  # 1 was LRU
    assert c.probe(0) and c.probe(2) and not c.probe(1)


def test_insert_existing_refreshes_lru():
    c = small_cache(assoc=2, sets=1)
    c.insert(0)
    c.insert(1)
    assert c.insert(0) is None  # refresh, no eviction
    victim = c.insert(2)
    assert victim[0] == 1


def test_dirty_bit_propagates_through_eviction():
    c = small_cache(assoc=1, sets=1)
    c.insert(7, dirty=True)
    victim = c.insert(8)
    assert victim == (7, True)


def test_mark_dirty():
    c = small_cache()
    c.insert(3)
    assert c.mark_dirty(3)
    assert not c.mark_dirty(4)
    victim_line = None
    # fill the set of line 3 until 3 is evicted; sets=4 so same-set lines are 3,7,11,...
    victim = c.insert(7)
    victim = c.insert(11) or victim
    assert victim is not None
    evicted = dict([victim]) if victim else {}
    # line 3 was LRU after inserting 7 and 11 into the same set
    assert victim == (3, True)


def test_invalidate():
    c = small_cache()
    c.insert(9)
    assert c.invalidate(9)
    assert not c.invalidate(9)
    assert not c.probe(9)


def test_probe_has_no_side_effects():
    c = small_cache(assoc=2, sets=1)
    c.insert(0)
    c.insert(1)
    before = c.export_sets()
    assert c.probe(0)
    assert not c.probe(5)
    assert c.export_sets() == before
    # probe must not promote: 0 is still LRU
    victim = c.insert(2)
    assert victim[0] == 0


def test_sets_are_independent():
    c = small_cache(assoc=1, sets=4)
    for line in range(4):
        c.insert(line)
    assert all(c.probe(line) for line in range(4))
    assert c.resident_lines() == 4
