"""Unit tests for the cache, TLB and line states."""

import pytest

from repro.uarch.cache import Cache, CacheConfig, LineState
from repro.uarch.tlb import TLB, TLBConfig


def small_cache(size=1024, ways=2, line=64, name="c"):
    return Cache(CacheConfig(name=name, size_bytes=size, ways=ways,
                             line_bytes=line))


class TestCacheConfig:
    def test_geometry(self):
        config = CacheConfig(name="DL0-32K-8w", size_bytes=32 * 1024, ways=8)
        assert config.sets == 64
        assert config.lines == 512

    def test_rejects_non_divisible(self):
        with pytest.raises(ValueError):
            CacheConfig(name="bad", size_bytes=1000, ways=3)

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            CacheConfig(name="bad", size_bytes=0, ways=1)


class TestCacheBasics:
    def test_cold_miss_then_hit(self):
        cache = small_cache()
        assert not cache.access(0x100)
        assert cache.access(0x100)
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1

    def test_same_line_different_words_hit(self):
        cache = small_cache()
        cache.access(0x100)
        assert cache.access(0x13C)  # same 64B line

    def test_lru_eviction(self):
        cache = small_cache(size=256, ways=2, line=64)  # 2 sets
        # Three lines mapping to set 0: 0, 128, 256 with 2 sets? sets=2:
        # line_addr % 2 chooses set; use addresses 0, 128, 256.
        cache.access(0x000)
        cache.access(0x080)
        cache.access(0x100)  # evicts LRU (0x000)
        assert not cache.access(0x000)

    def test_lru_updated_on_hit(self):
        cache = small_cache(size=256, ways=2, line=64)
        cache.access(0x000)
        cache.access(0x080)
        cache.access(0x000)  # refresh
        cache.access(0x100)  # evicts 0x080 now
        assert cache.access(0x000)
        assert not cache.access(0x080)

    def test_probe_does_not_allocate(self):
        cache = small_cache()
        assert not cache.probe(0x100)
        assert not cache.probe(0x100)
        assert cache.stats.accesses == 0

    def test_hit_position_histogram(self):
        cache = small_cache()
        cache.access(0x100)
        cache.access(0x100)
        assert cache.stats.mru_hit_fraction() == 1.0

    def test_reset_stats(self):
        cache = small_cache()
        cache.access(0x100)
        cache.reset_stats()
        assert cache.stats.accesses == 0

    def test_replay_counts_hits(self):
        cache = small_cache()
        assert cache.replay([0x100, 0x100, 0x200, 0x100]) == 2
        assert cache.stats.accesses == 4
        assert cache.stats.hits == 2
        assert cache.stats.misses == 2

    def test_reset_restores_cold_state(self):
        cache = small_cache()
        cache.access(0x100)
        set_index, __ = cache.index_of(0x100)
        cache.invert_line(set_index, cache.valid_ways(set_index)[0])
        cache.set_shadow(set_index, 1, True)
        cache.allow_inverted_victims = False
        cache.reset()
        assert cache.stats.accesses == 0
        assert cache.inverted_count() == 0
        assert cache.shadow_count() == 0
        assert cache.allow_inverted_victims
        assert not cache.probe(0x100)
        # LRU stacks are back to construction order.
        assert cache.lru_position(set_index, 0) == 0

    def test_reset_then_replay_reproduces_first_run(self):
        cache = small_cache(size=2048, ways=4)
        stream = [(i * 7919) % 8192 for i in range(600)]
        cache.replay(stream)
        first = (cache.stats, cache.metrics().flatten())
        cache.reset()
        cache.replay(stream)
        assert (cache.stats, cache.metrics().flatten()) == first


class TestInversionStates:
    def test_invert_line_makes_it_unusable(self):
        cache = small_cache()
        cache.access(0x100)
        set_index, __ = cache.index_of(0x100)
        way = cache.valid_ways(set_index)[0]
        cache.invert_line(set_index, way)
        assert cache.line_state(set_index, way) is LineState.INVERTED
        assert not cache.access(0x100)  # the line was invalidated

    def test_inverted_count(self):
        cache = small_cache()
        assert cache.inverted_count() == 0
        cache.invert_line(0, 0)
        cache.invert_line(0, 1)
        assert cache.inverted_count() == 2

    def test_victim_prefers_invalid_then_inverted(self):
        cache = small_cache(size=256, ways=2, line=64)
        cache.access(0x000)
        set_index, __ = cache.index_of(0x000)
        # One valid line, one invalid: victim must be the invalid way.
        victim = cache.victim_way(set_index)
        assert cache.line_state(set_index, victim) is LineState.INVALID
        # Fill it, then invert it: victim must be the inverted way.
        cache.access(0x080)
        cache.invert_line(set_index, victim)
        assert cache.victim_way(set_index) == victim

    def test_refill_of_inverted_counted(self):
        cache = small_cache(size=128, ways=1, line=64)
        cache.access(0x000)
        set_index, __ = cache.index_of(0x000)
        cache.invert_line(set_index, 0)
        cache.access(0x000)
        assert cache.stats.refills_of_inverted == 1

    def test_shadow_hits_counted(self):
        cache = small_cache()
        cache.access(0x100)
        set_index, __ = cache.index_of(0x100)
        way = cache.valid_ways(set_index)[0]
        cache.set_shadow(set_index, way, True)
        assert cache.is_shadow(set_index, way)
        cache.access(0x100)
        assert cache.stats.shadow_hits == 1
        cache.clear_shadow()
        assert cache.shadow_count() == 0

    def test_invalidate_line(self):
        cache = small_cache()
        cache.access(0x100)
        set_index, __ = cache.index_of(0x100)
        way = cache.valid_ways(set_index)[0]
        cache.invalidate_line(set_index, way)
        assert cache.line_state(set_index, way) is LineState.INVALID
        assert not cache.access(0x100)


class TestTLB:
    def test_page_granularity(self):
        tlb = TLB(TLBConfig(name="DTLB-8", entries=8, ways=8))
        assert not tlb.translate(0x1000)
        assert tlb.translate(0x1FFF)   # same 4K page
        assert not tlb.translate(0x2000)  # next page

    def test_entry_capacity(self):
        tlb = TLB(TLBConfig(name="DTLB-8", entries=8, ways=8))
        for page in range(8):
            tlb.translate(page * 4096)
        for page in range(8):
            assert tlb.translate(page * 4096)
        tlb.translate(9 * 4096)  # evicts the LRU page
        assert not tlb.translate(0)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TLBConfig(name="bad", entries=10, ways=8)
        with pytest.raises(ValueError):
            TLBConfig(name="bad", entries=0, ways=1)

    def test_cache_config_mapping(self):
        config = TLBConfig(name="DTLB-128", entries=128, ways=8)
        assert config.cache_config().sets == 16
