"""Unit tests for the cache hierarchy timing model."""


from hypothesis import given, settings, strategies as st

from repro.uarch.caches import (
    MemoryHierarchy,
    _CacheLevel,
    _StridePrefetcher,
    replay_last_touch,
)
from repro.uarch.config import MemoryConfig
from repro.uarch.statistics import SimStats


def hierarchy(**kwargs):
    stats = SimStats()
    return MemoryHierarchy(MemoryConfig(**kwargs), stats), stats


def test_cold_miss_pays_dram_latency():
    h, stats = hierarchy()
    ready = h.access_data(0x100000, cycle=0, is_write=False)
    assert ready >= MemoryConfig().dram_latency
    assert stats.l1d_misses == 1
    assert stats.l2_misses == 1


def test_second_access_hits_l1():
    h, stats = hierarchy()
    first = h.access_data(0x2000, 0, False)
    second = h.access_data(0x2000, first, False)
    assert second == first + MemoryConfig().l1d_latency
    assert stats.l1d_misses == 1


def test_same_line_misses_merge_in_flight():
    h, _ = hierarchy()
    a = h.access_data(0x4000, 0, False)
    b = h.access_data(0x4008, 1, False)  # same 64B line, still in flight
    assert b <= a


def test_lru_eviction():
    config = MemoryConfig()
    level = _CacheLevel("t", size=4 * 64, assoc=2, line=64, latency=1, mshrs=4)
    # Two sets of two ways each; fill one set then overflow it.
    level.insert(0)
    level.insert(2)  # same set as 0 (line_addr % 2)
    level.insert(4)  # evicts line 0 (LRU)
    assert not level.lookup(0)
    assert level.lookup(2)
    assert level.lookup(4)


def test_mshr_limit_delays_misses():
    h, _ = hierarchy(l1d_mshrs=2)
    lines = [i * 0x10000 for i in range(4)]
    times = [h.access_data(a, 0, False) for a in lines]
    # With only 2 MSHRs the 3rd/4th miss must wait for a slot.
    assert times[2] > times[0]
    assert times[3] > times[1]


def test_stride_prefetcher_detects_stride():
    p = _StridePrefetcher(degree=2)
    addrs = [1000 + 64 * i for i in range(5)]
    out = []
    for a in addrs:
        out = p.observe(7, a)
    assert out == [addrs[-1] + 64, addrs[-1] + 128]


def test_stride_prefetcher_resets_on_noise():
    p = _StridePrefetcher(degree=2)
    for a in (0, 64, 128, 192):
        p.observe(7, a)
    assert p.observe(7, 5000) == []


def test_prefetch_hides_latency_for_streaming():
    h, stats = hierarchy()
    # Stream through many lines; later accesses should increasingly hit.
    latencies = []
    cycle = 0
    for i in range(64):
        ready = h.access_data(0x80000 + 64 * i, cycle, False, pc=3)
        latencies.append(ready - cycle)
        cycle = ready
    assert min(latencies[10:]) < latencies[0]


def test_instruction_side_hits_after_fill():
    h, stats = hierarchy()
    first = h.access_instruction(100, 0)
    second = h.access_instruction(101, first)  # same 64B line (pc*4)
    assert second == first + MemoryConfig().l1i_latency
    assert stats.l1i_misses == 1


def test_writes_allocate_lines():
    h, stats = hierarchy()
    h.access_data(0x6000, 0, is_write=True)
    ready = h.access_data(0x6000, 500, is_write=False)
    assert ready == 500 + MemoryConfig().l1d_latency


def _small_levels():
    # Tiny, heavily evicting levels: 4 sets x 2 ways and 2 sets x 4 ways
    # of 16-byte lines, against addresses spanning 64 lines.
    return (
        _CacheLevel("a", size=8 * 16, assoc=2, line=16, latency=1, mshrs=4),
        _CacheLevel("b", size=8 * 16, assoc=4, line=16, latency=1, mshrs=4),
    )


def _lru_state(level):
    """Per set: the resident lines, least recently used first."""
    return [sorted(cache_set, key=cache_set.get) for cache_set in level.sets]


@settings(max_examples=200, deadline=None)
@given(
    record=st.lists(st.integers(0, 64 * 16 - 1), max_size=120),
    preloaded=st.lists(st.integers(0, 63), max_size=10),
    follow_on=st.lists(st.integers(0, 63), max_size=60),
)
def test_last_touch_replay_matches_per_address_replay(
        record, preloaded, follow_on):
    """Inserting each distinct line once, in last-touch order, leaves an
    LRU level exactly as inserting every address's line does: same set
    contents, same relative LRU order, same hits and misses after."""
    per_address = _small_levels()
    per_line = _small_levels()
    for levels in (per_address, per_line):
        for level in levels:
            for line_addr in preloaded:
                level.insert(line_addr)
    for level in per_address:
        for addr in record:
            level.insert(addr // 16)
    replay_last_touch(per_line, tuple(record), 16)

    for slow, fast in zip(per_address, per_line):
        assert _lru_state(fast) == _lru_state(slow)
        hits_slow = []
        hits_fast = []
        for line_addr in follow_on:
            for level, hits in ((slow, hits_slow), (fast, hits_fast)):
                hit = level.lookup(line_addr)
                if not hit:
                    level.insert(line_addr)
                hits.append(hit)
        assert hits_fast == hits_slow
        assert _lru_state(fast) == _lru_state(slow)
