"""Unit tests for interval-based bit-cell residency accounting.

Everything but the array-type check runs with and without numpy: the
accumulator has one pure-Python implementation, and its reads return a
float64 array or a list depending only on whether numpy imports.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.uarch import bitbias
from repro.uarch.bitbias import BitBiasAccumulator, pack_bits, unpack_bits


class TestUnpackPack:
    @pytest.mark.parametrize("value,width", [
        (0, 8), (1, 8), (255, 8), (0b1010, 4), (1 << 79, 80), (12345, 16),
    ])
    def test_roundtrip(self, value, width):
        assert pack_bits(unpack_bits(value, width)) == value

    def test_little_endian_order(self):
        bits = unpack_bits(0b110, 3)
        assert list(bits) == [0, 1, 1]

    def test_width_overflow_rejected(self):
        with pytest.raises(ValueError):
            unpack_bits(256, 8)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            unpack_bits(-1, 8)

    def test_array_type_with_numpy(self):
        np = pytest.importorskip("numpy")
        bits = unpack_bits(5, 8)
        assert isinstance(bits, np.ndarray) and bits.dtype == np.uint8
        assert np.array_equal(bits, unpack_bits(5, 8))


class TestBitBiasAccumulator:
    def test_single_entry_residency(self):
        acc = BitBiasAccumulator(entries=1, width=4)
        acc.set_value(0, 0b1111, now=2.0)   # zeros held for 2 units
        acc.finalize(6.0)                   # ones held for 4 units
        bias = acc.bias_to_zero()
        assert list(bias) == pytest.approx([2 / 6] * 4)

    def test_initial_value(self):
        acc = BitBiasAccumulator(entries=2, width=2, initial_value=0b11)
        acc.finalize(1.0)
        assert list(acc.bias_to_zero()) == pytest.approx([0.0, 0.0])

    def test_per_entry_independence(self):
        acc = BitBiasAccumulator(entries=2, width=1)
        acc.set_value(0, 1, now=0.0)
        acc.finalize(10.0)
        cell = acc.cell_bias_to_zero()
        assert cell[0][0] == pytest.approx(0.0)
        assert cell[1][0] == pytest.approx(1.0)

    def test_aggregated_bias_weights_by_time(self):
        acc = BitBiasAccumulator(entries=2, width=1)
        acc.set_value(0, 1, now=0.0)  # entry 0 holds 1 forever
        acc.finalize(4.0)             # entry 1 holds 0 forever
        assert acc.bias_to_zero()[0] == pytest.approx(0.5)

    def test_worst_bias_and_bit(self):
        acc = BitBiasAccumulator(entries=1, width=3)
        acc.set_value(0, 0b010, now=0.0)
        acc.finalize(10.0)
        assert acc.worst_bias() == pytest.approx(1.0)
        bit, bias = acc.worst_bit()
        assert bit in (0, 2)
        assert bias == pytest.approx(1.0)

    def test_time_backwards_rejected(self):
        acc = BitBiasAccumulator(entries=1, width=1)
        acc.set_value(0, 1, now=5.0)
        with pytest.raises(ValueError):
            acc.set_value(0, 0, now=3.0)

    def test_out_of_order_across_entries_allowed(self):
        acc = BitBiasAccumulator(entries=2, width=1)
        acc.set_value(0, 1, now=5.0)
        acc.set_value(1, 1, now=3.0)  # earlier time, different entry: fine
        acc.finalize(10.0)

    def test_current_value(self):
        acc = BitBiasAccumulator(entries=1, width=8)
        acc.set_value(0, 171, now=1.0)
        assert acc.current_value(0) == 171

    def test_unobserved_reports_half(self):
        acc = BitBiasAccumulator(entries=1, width=2)
        assert list(acc.bias_to_zero()) == pytest.approx([0.5, 0.5])

    def test_total_observed_time(self):
        acc = BitBiasAccumulator(entries=2, width=4)
        acc.finalize(3.0)
        assert acc.total_observed_time() == pytest.approx(2 * 4 * 3.0)

    def test_invalid_shape_rejected(self):
        with pytest.raises(ValueError):
            BitBiasAccumulator(entries=0, width=4)
        with pytest.raises(ValueError):
            BitBiasAccumulator(entries=4, width=0)

    @pytest.mark.parametrize("value", [-1, 1 << 4, (1 << 8) - 1])
    def test_out_of_range_value_rejected(self, value):
        acc = BitBiasAccumulator(entries=1, width=4)
        with pytest.raises(ValueError):
            acc.set_value(0, value, now=1.0)
        with pytest.raises(ValueError):
            BitBiasAccumulator(entries=1, width=4, initial_value=value)

    def test_read_types(self):
        # float64 arrays when numpy imports, plain lists otherwise.
        acc = BitBiasAccumulator(entries=2, width=3)
        acc.finalize(2.0)
        reads = [acc.bias_to_zero(), acc.cell_bias_to_zero(),
                 acc.time_zero, acc.time_one]
        if bitbias.np is None:
            assert all(isinstance(read, list) for read in reads)
        else:
            assert [read.shape for read in reads] == [(3,), (2, 3),
                                                      (2, 3), (2, 3)]
            assert all(read.dtype == bitbias.np.float64 for read in reads)


class PerBitAccumulator:
    """The per-bit reference: every close adds its duration to every
    cell's zero or one time, one bit at a time."""

    def __init__(self, entries, width, initial_value=0):
        self.entries, self.width = entries, width
        self.initial_value = initial_value
        self.reset()

    def reset(self):
        self.value = [self.initial_value] * self.entries
        self.since = [0.0] * self.entries
        self.zero = [[0.0] * self.width for __ in range(self.entries)]
        self.one = [[0.0] * self.width for __ in range(self.entries)]

    def set_value(self, entry, value, now):
        self.close(entry, now)
        self.value[entry] = value

    def finalize(self, now):
        for entry in range(self.entries):
            self.close(entry, now)

    def close(self, entry, now):
        duration = now - self.since[entry]
        if duration > 0.0:
            for bit in range(self.width):
                if (self.value[entry] >> bit) & 1:
                    self.one[entry][bit] += duration
                else:
                    self.zero[entry][bit] += duration
        self.since[entry] = now

    def bias_to_zero(self):
        zero = [sum(row[j] for row in self.zero) for j in range(self.width)]
        one = [sum(row[j] for row in self.one) for j in range(self.width)]
        return [z / (z + o) if z + o > 0.0 else 0.5
                for z, o in zip(zero, one)]

    def cell_bias_to_zero(self):
        return [[z / (z + o) if z + o > 0.0 else 0.5
                 for z, o in zip(zrow, orow)]
                for zrow, orow in zip(self.zero, self.one)]

    def total_observed_time(self):
        return sum(map(sum, self.zero)) + sum(map(sum, self.one))


def _rows(matrix):
    return [list(map(float, row)) for row in matrix]


@st.composite
def _histories(draw):
    """Accumulator shape plus a write log with integral times.

    Each write advances its own entry's clock, so writes of different
    entries arrive out of time order; an optional mid-log ``reset``
    restarts every clock at zero.
    """
    width = draw(st.integers(min_value=1, max_value=144))
    entries = draw(st.integers(min_value=1, max_value=4))
    values = st.integers(min_value=0, max_value=(1 << width) - 1)
    initial = draw(values)
    log = draw(st.lists(
        st.tuples(st.integers(min_value=0, max_value=entries - 1),
                  st.integers(min_value=0, max_value=3378), values),
        max_size=40))
    reset_at = draw(st.none() | st.integers(min_value=0, max_value=len(log)))
    return width, entries, initial, log, reset_at


class TestAgainstPerBitReference:
    @settings(max_examples=150, deadline=None)
    @given(history=_histories())
    def test_word_level_equals_per_bit(self, history):
        width, entries, initial, log, reset_at = history
        acc = BitBiasAccumulator(entries, width, initial_value=initial)
        ref = PerBitAccumulator(entries, width, initial_value=initial)
        clock = [0] * entries
        for index, (entry, step, value) in enumerate(log):
            if index == reset_at:
                acc.reset()
                ref.reset()
                clock = [0] * entries
            clock[entry] += step
            acc.set_value(entry, value, float(clock[entry]))
            ref.set_value(entry, value, float(clock[entry]))
            assert acc.current_value(entry) == value
        # Open intervals do not count until finalize().
        assert acc.total_observed_time() == ref.total_observed_time()
        _assert_same_after_finalize(acc, ref, float(max(clock) + 7))

    @pytest.mark.parametrize("fold_at", [1, 16])
    def test_folded_histograms_read_the_same(self, monkeypatch, fold_at):
        # Long runs fold an entry's value histogram into an equivalent
        # one of at most width + 1 values; reads must not change a bit.
        monkeypatch.setattr(bitbias, "FOLD_AT", fold_at)
        rng = random.Random(fold_at)
        width, entries = 37, 3
        acc = BitBiasAccumulator(entries, width, initial_value=5)
        ref = PerBitAccumulator(entries, width, initial_value=5)
        clock = [0] * entries
        for __ in range(1500):
            entry = rng.randrange(entries)
            clock[entry] += rng.randrange(50)
            value = rng.getrandbits(width)
            acc.set_value(entry, value, float(clock[entry]))
            ref.set_value(entry, value, float(clock[entry]))
        assert all(len(held) <= max(fold_at, width + 1)
                   for held in acc._held)
        _assert_same_after_finalize(acc, ref, float(max(clock) + 1))


def _assert_same_after_finalize(acc, ref, end):
    acc.finalize(end)
    ref.finalize(end)
    assert list(map(float, acc.bias_to_zero())) == ref.bias_to_zero()
    assert _rows(acc.cell_bias_to_zero()) == ref.cell_bias_to_zero()
    assert _rows(acc.time_zero) == ref.zero
    assert _rows(acc.time_one) == ref.one
    assert acc.total_observed_time() == ref.total_observed_time()
    for entry in range(acc.entries):
        assert acc.current_value(entry) == ref.value[entry]
