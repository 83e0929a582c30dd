"""Set-associative cache with the line states the inversion schemes need.

Beyond a plain LRU cache, the model supports the three states Section
3.2.1 of the paper relies on:

- ``VALID``: a normal line holding workload data,
- ``INVALID``: an empty line (cold or explicitly invalidated),
- ``INVERTED``: invalid *and* holding inverted repair contents — the
  "valid/state bits indicate whether the cache line is valid and
  non-inverted, or invalid and inverted".

The cache also keeps a per-line *shadow-invert* bit used by the dynamic
scheme's test periods ("a bit per cache line that indicates whether cache
lines would have been inverted if the mechanism was activated.  Whenever
a hit happens in such cache lines, it is counted as an induced extra
miss"), and a hit-position histogram that backs the paper's MRU claim
(90% of DL0 hits in the MRU way).

Hot-path design
---------------
This module is the innermost loop of every Table 3 / sweep replay, so it
keeps per-access work O(ways):

- ``inverted_count()`` / ``shadow_count()`` are incremental counters
  maintained by the state-changing methods, not O(sets x ways) rescans
  (the schemes consult them after *every* access);
- the per-set LRU is position-indexed (``_lru_order`` / ``_lru_pos``),
  so hit-position lookup is O(1) and promotion shifts at most ``ways``
  slots instead of ``list.remove`` + ``list.index`` scans;
- :meth:`replay` batches a whole address stream with attribute lookups
  hoisted out of the loop.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from repro.metrics import MetricSet
from repro.obs.trace import TRACER as _TRACER


class LineState(enum.Enum):
    INVALID = "invalid"
    VALID = "valid"
    INVERTED = "inverted"  # invalid + inverted repair contents


@dataclass(frozen=True, slots=True)
class CacheConfig:
    """Geometry of a cache.

    Examples
    --------
    >>> CacheConfig(name="DL0-32K-8w", size_bytes=32 * 1024, ways=8).sets
    64
    """

    name: str
    size_bytes: int
    ways: int
    line_bytes: int = 64

    def __post_init__(self) -> None:
        if self.size_bytes <= 0 or self.ways <= 0 or self.line_bytes <= 0:
            raise ValueError("cache geometry must be positive")
        if self.size_bytes % (self.ways * self.line_bytes):
            raise ValueError(
                f"{self.name}: size {self.size_bytes} is not divisible by "
                f"ways*line ({self.ways}*{self.line_bytes})"
            )

    @property
    def sets(self) -> int:
        return self.size_bytes // (self.ways * self.line_bytes)

    @property
    def lines(self) -> int:
        return self.sets * self.ways


@dataclass(slots=True)
class CacheStats:
    """Running counters of one cache instance."""

    accesses: int = 0
    hits: int = 0
    misses: int = 0
    shadow_hits: int = 0
    inversions: int = 0
    refills_of_inverted: int = 0
    hit_way_position: Dict[int, int] = field(default_factory=dict)

    @property
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0

    def mru_hit_fraction(self, position: int = 0) -> float:
        """Fraction of hits found at the given LRU-stack position."""
        if not self.hits:
            return 0.0
        return self.hit_way_position.get(position, 0) / self.hits


class Cache:
    """A set-associative, true-LRU cache.

    The cache is a *tag* model: it tracks which line addresses are
    resident, not the data bytes.  Mechanisms manipulate line states via
    :meth:`invert_line` / :meth:`invalidate_line`; the replacement victim
    search prefers INVALID and INVERTED lines over evicting VALID ones.
    """

    __slots__ = (
        "config",
        "allow_inverted_victims",
        "_sets",
        "_ways",
        "_line_bytes",
        "_tags",
        "_state",
        "_lru_order",
        "_lru_pos",
        "_shadow",
        "_inverted_lines",
        "_shadow_lines",
        "stats",
    )

    def __init__(self, config: CacheConfig) -> None:
        self.config = config
        self._init_arrays()
        self.stats = CacheStats()

    def _init_arrays(self) -> None:
        """(Re)build the empty line-state arrays and counters."""
        #: When False, replacement never victimises INVERTED lines —
        #: used by way-granularity inversion, where the inverted ways
        #: are statically out of service rather than a refillable pool.
        self.allow_inverted_victims = True
        # Geometry as plain ints: CacheConfig.sets/.lines are computed
        # properties, far too expensive to re-derive per access.
        sets, ways = self.config.sets, self.config.ways
        self._sets = sets
        self._ways = ways
        self._line_bytes = self.config.line_bytes
        self._tags: List[List[Optional[int]]] = [
            [None] * ways for _ in range(sets)
        ]
        self._state: List[List[LineState]] = [
            [LineState.INVALID] * ways for _ in range(sets)
        ]
        #: per-set LRU order: index 0 = MRU way, last = LRU way ...
        self._lru_order: List[List[int]] = [
            list(range(ways)) for _ in range(sets)
        ]
        #: ... and its inverse: way -> current LRU-stack position.
        self._lru_pos: List[List[int]] = [
            list(range(ways)) for _ in range(sets)
        ]
        self._shadow: List[List[bool]] = [
            [False] * ways for _ in range(sets)
        ]
        #: incremental INVCOUNT / shadow-bit population (kept in sync by
        #: every state-changing method; the O(sets*ways) truth is only
        #: recomputed by tests).
        self._inverted_lines = 0
        self._shadow_lines = 0

    def reset(self) -> None:
        """Restore the cold, empty post-construction state and stats."""
        self._init_arrays()
        self.stats = CacheStats()

    # ------------------------------------------------------------------
    # Address mapping
    # ------------------------------------------------------------------
    def index_of(self, address: int) -> Tuple[int, int]:
        """(set index, tag) of a byte address."""
        line = address // self._line_bytes
        return line % self._sets, line // self._sets

    # ------------------------------------------------------------------
    # Access path
    # ------------------------------------------------------------------
    def access(self, address: int) -> bool:
        """Look up an address; fills on miss.  Returns hit/miss."""
        set_index, tag = self.index_of(address)
        stats = self.stats
        stats.accesses += 1
        way = self._find(set_index, tag)
        if way is not None:
            position = self._lru_pos[set_index][way]
            stats.hit_way_position[position] = (
                stats.hit_way_position.get(position, 0) + 1
            )
            stats.hits += 1
            if self._shadow[set_index][way]:
                stats.shadow_hits += 1
            if position:
                self._touch(set_index, way)
            return True
        stats.misses += 1
        self._fill(set_index, tag)
        return False

    def replay(self, addresses: Iterable[int]) -> int:
        """Access a whole address stream; returns the number of hits.

        Bit-exact equivalent of calling :meth:`access` per address, with
        the attribute lookups hoisted out of the loop — use this from
        study harnesses replaying 10^5+ accesses.  ``addresses`` may be
        any single-pass iterable (e.g. the lazy
        :func:`~repro.workloads.generator.iter_address_stream` or a
        :func:`~repro.workloads.multiprog.multiprog_address_stream`), so
        the replay is bounded-memory.
        """
        # Batch-granularity span: one record per replay *call*, never
        # per access — the disabled cost is a single attribute test.
        _t = _TRACER.begin()
        line_bytes, sets, ways = self._line_bytes, self._sets, self._ways
        all_tags, all_states = self._tags, self._state
        all_pos, all_shadow = self._lru_pos, self._shadow
        stats = self.stats
        hit_positions = stats.hit_way_position
        touch, fill = self._touch, self._fill
        valid = LineState.VALID
        way_range = range(ways)
        n_hits = n_misses = n_shadow = 0
        for address in addresses:
            line = address // line_bytes
            set_index = line % sets
            tag = line // sets
            states = all_states[set_index]
            tags = all_tags[set_index]
            hit_way = -1
            for way in way_range:
                if states[way] is valid and tags[way] == tag:
                    hit_way = way
                    break
            if hit_way >= 0:
                position = all_pos[set_index][hit_way]
                hit_positions[position] = (
                    hit_positions.get(position, 0) + 1
                )
                n_hits += 1
                if all_shadow[set_index][hit_way]:
                    n_shadow += 1
                if position:
                    touch(set_index, hit_way)
            else:
                n_misses += 1
                fill(set_index, tag)
        stats.accesses += n_hits + n_misses
        stats.hits += n_hits
        stats.misses += n_misses
        stats.shadow_hits += n_shadow
        if _t is not None:
            _TRACER.end(_t, "cache.replay", cache=self.config.name,
                        accesses=n_hits + n_misses, misses=n_misses)
        return n_hits

    def probe(self, address: int) -> bool:
        """Non-allocating lookup (no state change, no counters)."""
        set_index, tag = self.index_of(address)
        return self._find(set_index, tag) is not None

    def _find(self, set_index: int, tag: int) -> Optional[int]:
        tags = self._tags[set_index]
        states = self._state[set_index]
        for way in range(self._ways):
            if states[way] is LineState.VALID and tags[way] == tag:
                return way
        return None

    def _fill(self, set_index: int, tag: int) -> int:
        way = self.victim_way(set_index)
        states = self._state[set_index]
        if states[way] is LineState.INVERTED:
            self.stats.refills_of_inverted += 1
            self._inverted_lines -= 1
        if self._shadow[set_index][way]:
            self._shadow[set_index][way] = False
            self._shadow_lines -= 1
        self._tags[set_index][way] = tag
        states[way] = LineState.VALID
        self._touch(set_index, way)
        return way

    def victim_way(self, set_index: int) -> int:
        """Replacement victim: prefer INVALID, then INVERTED, then LRU.

        With :attr:`allow_inverted_victims` False, INVERTED lines are
        skipped and the LRU *valid* line is evicted instead (they are
        only reclaimed if the whole set is inverted).
        """
        states = self._state[set_index]
        order = self._lru_order[set_index]
        for way in reversed(order):
            if states[way] is LineState.INVALID:
                return way
        if self.allow_inverted_victims:
            for way in reversed(order):
                if states[way] is LineState.INVERTED:
                    return way
        for way in reversed(order):
            if states[way] is LineState.VALID:
                return way
        return order[-1]

    def _touch(self, set_index: int, way: int) -> None:
        """Promote a way to MRU by shifting the ways above it down."""
        positions = self._lru_pos[set_index]
        position = positions[way]
        if position == 0:
            return
        order = self._lru_order[set_index]
        while position:
            moved = order[position - 1]
            order[position] = moved
            positions[moved] = position
            position -= 1
        order[0] = way
        positions[way] = 0

    # ------------------------------------------------------------------
    # Mechanism interface
    # ------------------------------------------------------------------
    def line_state(self, set_index: int, way: int) -> LineState:
        return self._state[set_index][way]

    def valid_ways(self, set_index: int) -> List[int]:
        states = self._state[set_index]
        return [w for w in range(self._ways)
                if states[w] is LineState.VALID]

    def inverted_count(self) -> int:
        """Number of INVERTED lines (the schemes' INVCOUNT), in O(1)."""
        return self._inverted_lines

    def lru_position(self, set_index: int, position: int) -> int:
        """Way currently at the given LRU-stack position (0 = MRU)."""
        return self._lru_order[set_index][position]

    def invert_candidate(self, set_index: int, min_position: int) -> bool:
        """Invert the set's best inversion victim, if any.

        Preference order of the line schemes: a free win (INVALID line,
        by way index), else the LRU-most VALID line at stack position
        >= ``min_position``.  Returns False when the set has neither.
        Single-scan equivalent of probing ``line_state`` way by way.
        """
        states = self._state[set_index]
        invalid = LineState.INVALID
        for way in range(self._ways):
            if states[way] is invalid:
                self.invert_line(set_index, way)
                return True
        order = self._lru_order[set_index]
        valid = LineState.VALID
        for position in range(self._ways - 1, min_position - 1, -1):
            way = order[position]
            if states[way] is valid:
                self.invert_line(set_index, way)
                return True
        return False

    def shadow_candidate(self, set_index: int, min_position: int) -> bool:
        """Shadow-mark the set's LRU-most unmarked VALID line, if any.

        Same victim preference as :meth:`invert_candidate`'s VALID
        branch, used by the dynamic scheme's test periods.  Returns
        False when no eligible line exists.
        """
        states = self._state[set_index]
        shadow = self._shadow[set_index]
        order = self._lru_order[set_index]
        for position in range(self._ways - 1, min_position - 1, -1):
            way = order[position]
            if states[way] is LineState.VALID and not shadow[way]:
                shadow[way] = True
                self._shadow_lines += 1
                return True
        return False

    def invert_line(self, set_index: int, way: int) -> None:
        """Invalidate a line and fill it with inverted repair contents."""
        states = self._state[set_index]
        if states[way] is not LineState.INVERTED:
            self._inverted_lines += 1
        states[way] = LineState.INVERTED
        self._tags[set_index][way] = None
        if self._shadow[set_index][way]:
            self._shadow[set_index][way] = False
            self._shadow_lines -= 1
        self.stats.inversions += 1

    def invalidate_line(self, set_index: int, way: int) -> None:
        states = self._state[set_index]
        if states[way] is LineState.INVERTED:
            self._inverted_lines -= 1
        states[way] = LineState.INVALID
        self._tags[set_index][way] = None
        if self._shadow[set_index][way]:
            self._shadow[set_index][way] = False
            self._shadow_lines -= 1

    def set_shadow(self, set_index: int, way: int, value: bool) -> None:
        """Mark/unmark the would-be-inverted test bit of a line."""
        row = self._shadow[set_index]
        if row[way] != value:
            self._shadow_lines += 1 if value else -1
            row[way] = value

    def is_shadow(self, set_index: int, way: int) -> bool:
        return self._shadow[set_index][way]

    def shadow_count(self) -> int:
        """Number of shadow-marked lines, in O(1)."""
        return self._shadow_lines

    def clear_shadow(self) -> None:
        if not self._shadow_lines:
            return
        for row in self._shadow:
            for way in range(len(row)):
                row[way] = False
        self._shadow_lines = 0

    def reset_stats(self) -> None:
        self.stats = CacheStats()

    # ------------------------------------------------------------------
    # Telemetry (MetricSource)
    # ------------------------------------------------------------------
    def metrics(self) -> MetricSet:
        """Live metric tree over this cache's counters.

        Every stat reads through ``self`` at snapshot time, so the tree
        survives :meth:`reset` (which swaps the ``stats`` object) and
        costs the access path nothing — collection is pull-based.
        """
        ms = MetricSet()
        ms.counter("accesses", read=lambda: self.stats.accesses)
        ms.counter("hits", read=lambda: self.stats.hits)
        ms.counter("misses", read=lambda: self.stats.misses)
        ms.counter("shadow_hits", read=lambda: self.stats.shadow_hits)
        ms.counter("inversions", read=lambda: self.stats.inversions)
        ms.counter("refills_of_inverted",
                   read=lambda: self.stats.refills_of_inverted)
        ms.ratio("miss_rate", numerator="misses", denominator="accesses")
        ms.ratio("hit_rate", numerator="hits", denominator="accesses")
        ms.gauge("inverted_lines", read=self.inverted_count)
        ms.gauge("shadow_lines", read=self.shadow_count)
        lines = self.config.lines
        ms.gauge("inverted_frac",
                 read=lambda: self._inverted_lines / lines,
                 help="fraction of lines holding inverted repair data")
        ms.distribution(
            "hit_way_position",
            read=lambda: dict(self.stats.hit_way_position),
            help="hits per LRU-stack position (0 = MRU)",
        )
        return ms
