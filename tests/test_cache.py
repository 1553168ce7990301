from __future__ import annotations

import pytest

from audit import reference_offset, splitmix64_mix

from robsim.cache import NO_FILL, CacheConfig, CacheState, miss_offset


def make_cache(**kw) -> CacheState:
    return CacheState(CacheConfig(**kw))


def test_hit_latency_and_mru_update():
    cache = make_cache(ways=2)
    cache.warm(5)
    cache.warm(69)  # same set as 5 under 64 sets
    assert cache.snapshot_set(5) == [69, 5]
    assert cache.access(5, cycle=10) == ("hit", 3)
    assert cache.snapshot_set(5) == [5, 69]


def test_cold_miss_schedules_fill():
    cache = make_cache()
    assert cache.access(7, cycle=100) == ("miss", 60)
    assert cache.mshrs == {7: 160} and cache.next_fill == 160
    assert not cache.resident(7)
    assert cache.process_fills(159) == []
    assert cache.process_fills(160) == [7]
    assert cache.resident(7)
    assert cache.mshrs == {} and cache.next_fill == NO_FILL


def test_mshr_capacity_rejects_eleventh_miss():
    cache = make_cache(mshr_entries=10)
    for i in range(10):
        assert cache.access(i, cycle=0) == ("miss", 60)
    assert cache.access(10, cycle=0) == ("mshr_stall", 0)
    assert cache.mshr_stalls == 1 and len(cache.mshrs) == 10
    cache.process_fills(60)
    assert cache.access(10, cycle=61) == ("miss", 60)


def test_unbounded_mshrs():
    cache = make_cache(mshr_entries=None)
    for i in range(500):
        assert cache.access(i, cycle=0) == ("miss", 60)


def test_coalesce_with_in_flight_line():
    cache = make_cache()
    assert cache.access(9, cycle=0) == ("miss", 60)
    assert cache.access(9, cycle=20) == ("coalesced", 40)
    assert cache.mshrs == {9: 60}
    assert cache.coalesced_misses == 1 and cache.misses == 1


def test_direct_mapped_conflict_fill_evicts():
    # ways=1: the set holds one line; a later fill replaces the earlier one.
    cache = make_cache(ways=1)
    cache.access(12, cycle=0)  # fill at 60
    cache.access(76, cycle=1)  # same set (12 % 64 == 76 % 64), fill at 61
    cache.process_fills(60)
    assert cache.snapshot_set(12) == [12]
    cache.process_fills(61)
    assert cache.snapshot_set(12) == [76]


def test_hit_under_conflicting_fill_in_flight():
    # a resident line keeps hitting while a conflicting fill is pending
    cache = make_cache(ways=1)
    cache.warm(76)
    cache.access(12, cycle=0)  # miss, fill at 60 will evict 76
    assert cache.access(76, cycle=5) == ("hit", 3)
    cache.process_fills(60)
    assert cache.snapshot_set(12) == [12]


def test_lru_two_way_evicts_least_recent():
    # oracle: accesses A, B, A then fill C -> B is LRU and gets evicted
    cache = make_cache(ways=2)
    a, b, c = 3, 67, 131  # one set
    cache.warm(a)
    cache.warm(b)
    cache.access(a, cycle=0)
    assert cache.snapshot_set(3) == [a, b]
    cache.access(c, cycle=1)
    cache.process_fills(61)
    assert cache.snapshot_set(3) == [c, a]


def test_suppressed_replacement_then_deferred_touch():
    cache = make_cache(ways=2)
    a, b = 4, 68
    cache.warm(a)
    cache.warm(b)  # order now [b, a]
    before = cache.snapshot_set(4)
    assert cache.access(a, cycle=2, deferred_effects=True) == ("deferred_hit", 3)
    assert cache.snapshot_set(4) == before  # invisible until commit
    cache.touch(a)
    assert cache.snapshot_set(4) == [a, b]
    cache.flush(a)
    cache.touch(a)  # line gone: deferred update drops silently
    assert cache.snapshot_set(4) == [b]


def test_flush_removes_line():
    cache = make_cache()
    cache.warm(40)
    assert cache.resident(40)
    cache.flush(40)
    assert not cache.resident(40)
    cache.flush(40)  # idempotent


def test_config_validation():
    with pytest.raises(ValueError):
        CacheConfig(hit_cycles=5, miss_cycles=5)
    with pytest.raises(ValueError):
        CacheConfig(num_sets=0)
    with pytest.raises(ValueError):
        CacheConfig(mshr_entries=0)


def jittered_cache(seed: int, amplitude: int = 5, **kw) -> CacheState:
    return CacheState(CacheConfig(**kw), jitter_amplitude=amplitude, jitter_seed=seed)


def test_miss_offset_is_splitmix64_of_seed_and_line():
    # SplitMix64's first output from state 0 mixes the golden gamma; split
    # as seed * 2^20 + line, an amplitude past 2^63 shows the raw word
    gamma = 0x9E3779B97F4A7C15
    seed, line = divmod(gamma, 2**20)
    assert splitmix64_mix(gamma) == 0xE220A8397B1DCDAF
    assert miss_offset(seed, line, 2**64) == 0xE220A8397B1DCDAF - 2**64
    for seed in (0, 1, 7, -3, 2**50):
        for line in (0, 8, 72, 2**20 - 16):
            for amplitude in (0, 1, 2, 56):
                want = reference_offset(seed, line, amplitude)
                assert miss_offset(seed, line, amplitude) == want


def test_miss_jitter_depends_on_seed_and_line_alone():
    # the same line gets the same offset whatever the cache did before
    quiet, busy = jittered_cache(3), jittered_cache(3, mshr_entries=1)
    busy.warm(7)
    assert busy.access(7, cycle=0) == ("hit", 3)
    assert busy.access(9, cycle=0) == ("miss", 60 + miss_offset(3, 9, 5))
    assert busy.access(9, cycle=1)[0] == "coalesced"
    assert busy.access(100, cycle=2) == ("mshr_stall", 0)
    busy.process_fills(70)
    assert busy.access(100, cycle=70) == quiet.access(100, cycle=70)
    # hits, coalesced accesses and refused retries carry no offset
    fill = busy.mshrs[100]
    assert busy.access(100, cycle=71) == ("coalesced", fill - 71)
    assert busy.access(101, cycle=71) == ("mshr_stall", 0)
    busy.warm(5)
    assert busy.access(5, cycle=72) == ("hit", 3)
    assert busy.access(5, cycle=72, deferred_effects=True) == ("deferred_hit", 3)
    # no jitter: every miss takes miss_cycles
    assert make_cache().access(100, cycle=70) == ("miss", 60)
    # over seeds, a line's offsets cover most of [-a, a]
    for amplitude in (2, 20, 56):
        offsets = {miss_offset(seed, 100, amplitude) for seed in range(200)}
        assert offsets <= set(range(-amplitude, amplitude + 1))
        assert len(offsets) >= 0.8 * (2 * amplitude + 1), (amplitude, len(offsets))


def test_fills_land_by_fill_cycle_then_allocation_order():
    seed = 1584  # offsets 5, 0, -2 and 0 for lines 1 to 4
    assert [miss_offset(seed, line, 5) for line in (1, 2, 3, 4)] == [5, 0, -2, 0]
    cache = jittered_cache(seed, mshr_entries=None)
    cache.access(1, cycle=0)  # fills at 65
    cache.access(2, cycle=3)  # 63
    cache.access(3, cycle=5)  # 63, allocated after 2
    cache.access(4, cycle=10)  # 70
    assert cache.mshrs == {1: 65, 2: 63, 3: 63, 4: 70} and cache.next_fill == 63
    assert cache.process_fills(62) == [] and cache.next_fill == 63
    assert cache.process_fills(66) == [2, 3, 1]
    assert cache.mshrs == {4: 70} and cache.next_fill == 70
