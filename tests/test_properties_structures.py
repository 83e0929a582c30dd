"""Property-based tests on the stateful structures (cache, scheduler,
register file) — the invariants every mechanism relies on."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.uarch.bitbias import BitBiasAccumulator
from repro.uarch.cache import Cache, CacheConfig, LineState
from repro.uarch.regfile import RegisterFile
from repro.uarch.scheduler import Scheduler
from repro.uarch.uop import SCHEDULER_LAYOUT, SchedulerLayout, Uop, UopClass

CONFIG = CacheConfig(name="prop-2K-4w", size_bytes=2048, ways=4,
                     line_bytes=64)

addresses = st.integers(min_value=0, max_value=1 << 20)


class TestCacheInvariants:
    @settings(max_examples=50, deadline=None)
    @given(stream=st.lists(addresses, min_size=1, max_size=200))
    def test_lru_stack_is_always_a_permutation(self, stream):
        cache = Cache(CONFIG)
        for address in stream:
            cache.access(address)
        for set_index in range(CONFIG.sets):
            stack = [cache.lru_position(set_index, p)
                     for p in range(CONFIG.ways)]
            assert sorted(stack) == list(range(CONFIG.ways))

    @settings(max_examples=50, deadline=None)
    @given(stream=st.lists(addresses, min_size=1, max_size=200))
    def test_hits_plus_misses_equals_accesses(self, stream):
        cache = Cache(CONFIG)
        for address in stream:
            cache.access(address)
        stats = cache.stats
        assert stats.hits + stats.misses == stats.accesses == len(stream)

    @settings(max_examples=50, deadline=None)
    @given(stream=st.lists(addresses, min_size=1, max_size=100))
    def test_immediate_reaccess_always_hits(self, stream):
        cache = Cache(CONFIG)
        for address in stream:
            cache.access(address)
            assert cache.probe(address)

    @settings(max_examples=30, deadline=None)
    @given(
        stream=st.lists(addresses, min_size=1, max_size=100),
        inversions=st.lists(
            st.tuples(st.integers(0, CONFIG.sets - 1),
                      st.integers(0, CONFIG.ways - 1)),
            max_size=20,
        ),
    )
    def test_inverted_count_matches_states(self, stream, inversions):
        cache = Cache(CONFIG)
        for (set_index, way), address in zip(inversions, stream):
            cache.access(address)
            cache.invert_line(set_index, way)
        counted = sum(
            1
            for s in range(CONFIG.sets)
            for w in range(CONFIG.ways)
            if cache.line_state(s, w) is LineState.INVERTED
        )
        assert cache.inverted_count() == counted


class TestSchedulerInvariants:
    field_names = list(SCHEDULER_LAYOUT.fields())

    @settings(max_examples=50, deadline=None)
    @given(
        writes=st.lists(
            st.tuples(
                st.sampled_from(field_names),
                st.integers(min_value=0, max_value=(1 << 32) - 1),
            ),
            min_size=1, max_size=40,
        )
    )
    def test_field_roundtrip_through_flattened_row(self, writes):
        sched = Scheduler(entries=2)
        slot = sched.allocate(0.0)
        now = 0.0
        expected = {}
        for name, raw in writes:
            width = SCHEDULER_LAYOUT.fields()[name]
            value = raw & ((1 << width) - 1)
            now += 1.0
            sched.set_field(slot, name, value, now)
            expected[name] = value
        for name, value in expected.items():
            assert sched.field_value(slot, name) == value

    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_allocation_never_double_books(self, data):
        sched = Scheduler(entries=4)
        live = set()
        now = 0.0
        for __ in range(30):
            now += 1.0
            if data.draw(st.booleans()) and len(live) < 4:
                slot = sched.allocate(now)
                assert slot is not None
                assert slot not in live
                live.add(slot)
            elif live:
                slot = data.draw(st.sampled_from(sorted(live)))
                sched.release(slot, now)
                live.discard(slot)
        assert sum(sched.is_busy(s) for s in range(4)) == len(live)


#: Every field narrower or wider than Table 2, and src2_data wider than
#: src1_data, so a layout-independent bug cannot hide behind the default.
ODD_LAYOUT = SchedulerLayout(
    valid=1, latency=4, port=3, taken=1, mob_id=5, tos=2, flags=4,
    shift1=1, shift2=1, dst_tag=6, src1_tag=5, src2_tag=8, ready1=1,
    ready2=1, src1_data=16, src2_data=24, immediate=8, opcode=10,
)

uops = st.builds(
    Uop,
    seq=st.just(0),
    uop_class=st.sampled_from([c for c in UopClass if not c.is_memory]),
    opcode=st.integers(0, (1 << SCHEDULER_LAYOUT.opcode) - 1),
    src1_value=st.integers(0, (1 << 64) - 1),
    src2_value=st.integers(0, (1 << 64) - 1),
    immediate=st.integers(0, (1 << 20) - 1),
    latency=st.integers(0, (1 << SCHEDULER_LAYOUT.latency) - 1),
    port=st.integers(0, 7),
    taken=st.booleans(),
    tos=st.integers(0, 15),
    flags=st.integers(0, 127),
    shift1=st.booleans(),
    shift2=st.booleans(),
)

fills = st.lists(
    st.tuples(
        uops,
        st.one_of(st.none(), st.integers(0, 255)),          # mob_id
        st.tuples(*[st.integers(0, 511)] * 3),              # tags
        st.sets(st.sampled_from(["ready1", "ready2"])),     # arrivals
    ),
    min_size=1, max_size=12,
)


def _compose(row, values, offsets):
    """The per-field composition the word-level writes must equal."""
    for field, value in values.items():
        start, width = offsets[field]
        mask = (1 << width) - 1
        assert 0 <= value <= mask
        row = (row & ~(mask << start)) | (value << start)
    return row


class TestSchedulerWordWrites:
    """fill/set_field/release write whole rows; the oracle composes
    :meth:`Scheduler.field_values` field by field and feeds its own
    accumulator."""

    @pytest.mark.parametrize("layout", [SCHEDULER_LAYOUT, ODD_LAYOUT],
                             ids=["table2", "odd"])
    @settings(max_examples=60, deadline=None)
    @given(sequence=fills)
    def test_rows_equal_per_field_composition(self, layout, sequence):
        sched = Scheduler(entries=1, layout=layout)
        offsets = layout.bit_offsets()
        oracle = BitBiasAccumulator(1, layout.total_bits)
        row = 0
        now = 0.0
        for uop, mob_id, (dst, src1, src2), arrivals in sequence:
            slot = sched.allocate(now)
            assert slot == 0
            sched.fill(slot, uop, mob_id, now, dst_tag=dst,
                       src1_tag=src1, src2_tag=src2)
            row = _compose(row, sched.field_values(uop, mob_id, dst, src1,
                                                   src2), offsets)
            oracle.set_value(0, row, now)
            for field in sorted(arrivals):
                now += 1.0
                sched.set_field(slot, field, 1, now)
                row = _compose(row, {field: 1}, offsets)
                oracle.set_value(0, row, now)
            now += 1.0
            sched.release(slot, now)
            row = _compose(row, {"valid": 0}, offsets)
            oracle.set_value(0, row, now)
            stored = sum(sched.field_value(slot, field) << start
                         for field, (start, __) in offsets.items())
            assert stored == row
        stats = sched.finalize(now + 1.0)
        oracle.finalize(now + 1.0)
        assert list(stats.flattened_bias(include_opcode=True)) == list(
            oracle.bias_to_zero())

    @settings(max_examples=40, deadline=None)
    @given(values=st.dictionaries(
        st.sampled_from([f for f in SCHEDULER_LAYOUT.fields()
                         if f != "valid"]),
        st.integers(0, (1 << 32) - 1), min_size=1))
    def test_write_special_equals_per_field_composition(self, values):
        sched = Scheduler(entries=1)
        offsets = SCHEDULER_LAYOUT.bit_offsets()
        values = {f: v & ((1 << offsets[f][1]) - 1)
                  for f, v in values.items()}
        slot = sched.allocate(0.0)
        sched.release(slot, 1.0)
        assert sched.write_special(slot, values, 2.0)
        expected = _compose(0, values, offsets)
        for field, (start, width) in offsets.items():
            assert sched.field_value(slot, field) == (
                (expected >> start) & ((1 << width) - 1))


class TestRegisterFileInvariants:
    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_free_list_conservation(self, data):
        rf = RegisterFile(entries=6, width=8)
        live = set()
        now = 0.0
        for __ in range(40):
            now += 1.0
            if data.draw(st.booleans()):
                entry = rf.allocate(now)
                if entry is not None:
                    assert entry not in live
                    live.add(entry)
                    rf.write(entry, data.draw(st.integers(0, 255)), now)
                else:
                    assert len(live) == 6
            elif live:
                entry = data.draw(st.sampled_from(sorted(live)))
                rf.release(entry, now)
                live.discard(entry)
        busy = sum(rf.is_busy(e) for e in range(6))
        assert busy == len(live)

    @settings(max_examples=30, deadline=None)
    @given(
        values=st.lists(st.integers(min_value=0, max_value=255),
                        min_size=1, max_size=20)
    )
    def test_read_returns_last_write(self, values):
        rf = RegisterFile(entries=2, width=8)
        entry = rf.allocate(0.0)
        for index, value in enumerate(values):
            rf.write(entry, value, float(index + 1))
            assert rf.read(entry) == value
