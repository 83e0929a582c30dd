"""Differential tests pinning the hot-path kernel refactor.

The cache keeps incremental ``inverted_count()`` / ``shadow_count()``
counters and a position-indexed LRU, and offers a batched ``replay()``
next to per-access ``access()``.  These tests compare all of that
against brute-force oracles:

- counters vs. an O(sets x ways) rescan of the public line state,
- ``replay()`` vs. an ``access()``-per-address run (hit/miss sequence,
  stats, counters and final line states),
- a reset ``ProtectedCache`` vs. a freshly-built one.

Streams are random but seeded; every scheme granularity of Section
3.2.1 is covered.
"""

import random

import pytest

from repro.core.cache_like import (
    LineDynamicScheme,
    LineFixedScheme,
    ProtectedCache,
    SetFixedScheme,
    WayFixedScheme,
)
from repro.uarch.cache import Cache, CacheConfig, LineState

CONFIG = CacheConfig(name="diff-2K-4w", size_bytes=2 * 1024, ways=4)

SCHEME_FACTORIES = {
    "set_fixed": lambda: SetFixedScheme(0.5, rotation_period=500),
    "way_fixed": lambda: WayFixedScheme(0.5, rotation_period=500),
    "line_fixed": lambda: LineFixedScheme(0.5),
    "line_dynamic": lambda: LineDynamicScheme(
        ratio=0.6, threshold=0.02, warmup=200, test_window=200,
        period=1200,
    ),
}


def random_stream(seed: int, length: int = 3000,
                  span_lines: int = 128) -> list:
    """Mixed locality: hot lines plus a uniform tail."""
    rng = random.Random(seed)
    hot = [rng.randrange(span_lines // 4) * 64 for __ in range(16)]
    stream = []
    for __ in range(length):
        if rng.random() < 0.6:
            stream.append(rng.choice(hot))
        else:
            stream.append(rng.randrange(span_lines) * 64)
    return stream


def oracle_inverted_count(cache: Cache) -> int:
    """Brute-force rescan through the public line-state API."""
    return sum(
        1
        for set_index in range(cache.config.sets)
        for way in range(cache.config.ways)
        if cache.line_state(set_index, way) is LineState.INVERTED
    )


def oracle_shadow_count(cache: Cache) -> int:
    return sum(
        1
        for set_index in range(cache.config.sets)
        for way in range(cache.config.ways)
        if cache.is_shadow(set_index, way)
    )


def snapshot(cache: Cache):
    """Full observable line state, via the public API."""
    return [
        (cache.line_state(s, w), cache.is_shadow(s, w),
         cache.lru_position(s, p))
        for s in range(cache.config.sets)
        for p in range(cache.config.ways)
        for w in range(cache.config.ways)
    ]


@pytest.mark.parametrize("scheme_name", sorted(SCHEME_FACTORIES))
@pytest.mark.parametrize("seed", [1, 2, 3])
class TestCountersMatchOracle:
    def test_counters_track_rescan(self, scheme_name, seed):
        protected = ProtectedCache(
            Cache(CONFIG), SCHEME_FACTORIES[scheme_name](), seed=seed
        )
        cache = protected.cache
        for index, address in enumerate(random_stream(seed)):
            protected.access(address)
            if index % 97 == 0:
                assert cache.inverted_count() == \
                    oracle_inverted_count(cache)
                assert cache.shadow_count() == oracle_shadow_count(cache)
        assert cache.inverted_count() == oracle_inverted_count(cache)
        assert cache.shadow_count() == oracle_shadow_count(cache)

    def test_replay_matches_per_access_run(self, scheme_name, seed):
        stream = random_stream(seed + 100)
        one = ProtectedCache(Cache(CONFIG),
                             SCHEME_FACTORIES[scheme_name](), seed=seed)
        hit_sequence = [one.access(address) for address in stream]

        two = ProtectedCache(Cache(CONFIG),
                             SCHEME_FACTORIES[scheme_name](), seed=seed)
        replay_hits = two.replay(stream)

        assert replay_hits == sum(hit_sequence)
        assert one.stats == two.stats
        assert one.cache.inverted_count() == two.cache.inverted_count()
        assert one.cache.shadow_count() == two.cache.shadow_count()
        assert snapshot(one.cache) == snapshot(two.cache)

    def test_reset_reproduces_first_run(self, scheme_name, seed):
        stream = random_stream(seed + 200)
        protected = ProtectedCache(
            Cache(CONFIG), SCHEME_FACTORIES[scheme_name](), seed=seed
        )
        protected.replay(stream)
        first_stats = protected.stats
        first_state = snapshot(protected.cache)

        protected.reset()
        assert protected.stats.accesses == 0
        protected.replay(stream)
        assert protected.stats == first_stats
        assert snapshot(protected.cache) == first_state


@pytest.mark.parametrize("scheme_cls", [SetFixedScheme, WayFixedScheme],
                         ids=["set_fixed", "way_fixed"])
def test_rotation_extremes_match_per_access_run(scheme_cls):
    """Rotating every access, every other access, and rarely: the
    batched replay still equals the per-access run."""
    stream = random_stream(5, length=2500)
    for period in (1, 2, 9_999):
        one = ProtectedCache(Cache(CONFIG),
                             scheme_cls(0.5, rotation_period=period), seed=3)
        hits = sum(one.access(address) for address in stream)
        two = ProtectedCache(Cache(CONFIG),
                             scheme_cls(0.5, rotation_period=period), seed=3)
        assert two.replay(stream) == hits, period
        assert one.stats == two.stats, period
        assert snapshot(one.cache) == snapshot(two.cache), period


class TestBaselineReplay:
    def test_replay_matches_access_loop(self):
        stream = random_stream(7)
        one, two = Cache(CONFIG), Cache(CONFIG)
        hit_sequence = [one.access(address) for address in stream]
        assert two.replay(stream) == sum(hit_sequence)
        assert one.stats == two.stats
        assert snapshot(one) == snapshot(two)

    @pytest.mark.parametrize("config", [
        CacheConfig(name="g-1K-2w", size_bytes=1024, ways=2),
        CacheConfig(name="g-8K-8w", size_bytes=8 * 1024, ways=8),
        CacheConfig(name="g-32K-4w", size_bytes=32 * 1024, ways=4),
    ], ids=lambda config: config.name)
    def test_replay_matches_access_loop_across_geometries(self, config):
        for length in (0, 1, 37, 700):
            stream = random_stream(length, length=length, span_lines=4096)
            one, two = Cache(config), Cache(config)
            hits = sum(one.access(address) for address in stream)
            assert two.replay(iter(stream)) == hits, length
            assert one.stats == two.stats, length
            assert snapshot(one) == snapshot(two), length

    def test_replay_hit_sequence_prefixes(self):
        # replay() over any prefix leaves the same state as access():
        # replaying the rest must produce the same totals.
        stream = random_stream(8)
        one, two = Cache(CONFIG), Cache(CONFIG)
        for address in stream:
            one.access(address)
        two.replay(stream[:1000])
        two.replay(stream[1000:])
        assert one.stats == two.stats


class TestCandidateHelpers:
    def test_invert_candidate_prefers_invalid(self):
        cache = Cache(CONFIG)
        cache.access(0)  # fill one line of set 0
        assert cache.invert_candidate(0, 1)
        # A free win: the inverted line is not the freshly-filled one.
        assert cache.line_state(0, 0) is LineState.VALID or \
            cache.inverted_count() == 1
        assert cache.inverted_count() == oracle_inverted_count(cache)

    def test_invert_candidate_respects_min_position(self):
        cache = Cache(CONFIG)
        ways = CONFIG.ways
        # Fill every way of set 0 -> no INVALID left in that set.
        for way in range(ways):
            cache.access(way * CONFIG.sets * CONFIG.line_bytes)
        assert cache.invert_candidate(0, ways - 1)
        # Only the LRU position was eligible.
        victim = cache.lru_position(0, ways - 1)
        assert cache.line_state(0, victim) is LineState.INVERTED
        # That slot is INVERTED now (and not a free INVALID win), so no
        # further candidate exists at this min_position.
        assert not cache.invert_candidate(0, ways - 1)

    def test_shadow_candidate_marks_lru_valid(self):
        cache = Cache(CONFIG)
        for way in range(CONFIG.ways):
            cache.access(way * CONFIG.sets * CONFIG.line_bytes)
        assert cache.shadow_candidate(0, 1)
        assert cache.shadow_count() == 1
        marked = [w for w in range(CONFIG.ways) if cache.is_shadow(0, w)]
        assert marked == [cache.lru_position(0, CONFIG.ways - 1)]

    def test_shadow_candidate_empty_set(self):
        cache = Cache(CONFIG)
        assert not cache.shadow_candidate(0, 1)
        assert cache.shadow_count() == 0
