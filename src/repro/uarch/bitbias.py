"""Interval-based per-bit-cell residency accounting.

Storage structures accrue NBTI stress according to *how long* each bit
cell holds "0" vs "1" (Section 3.2).  Accounting naively (every cell,
every cycle) is prohibitively slow; instead :class:`BitBiasAccumulator`
closes a residency interval only when an entry's value changes, and it
closes it at word level: each entry keeps a histogram ``value -> held
time``, so a close is one dict add whatever the width (a histogram
past :data:`FOLD_AT` values is folded into an equivalent small one).
Per-bit zero and one times are derived when read, by grouping the held
time per byte of the value (:func:`bit_weights`).

Exactness contract: the trace-driven core (and the branch predictor's
default clock) stamps every event with an integral cycle count held in
a float.  Every interval, and every sum of intervals, is then an exact
integer below 2**53, so the grouping order cannot change a bit and the
derived totals equal what a per-bit accumulator (``time_one[e][i] +=
duration`` per close) computes.  Fractional times stay correct to float
rounding but are not guaranteed bit-identical to that per-bit order.

Pure Python: reads return float64 arrays when numpy is importable and
plain lists otherwise, converted once at the return.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Tuple

try:
    import numpy as np
except ImportError:  # pragma: no cover - exercised on the no-numpy leg
    np = None  # type: ignore[assignment]

from repro.metrics import MetricSet


def bit_weights(
    pairs: Iterable[Tuple[int, float]], width: int
) -> Tuple[float, List[float]]:
    """``(total weight, per-bit weight of the values with that bit set)``.

    Weights are grouped per byte of the value first: one add per
    non-zero byte of each pair, plus one per set bit of each byte value
    seen.  Exact for integral weights.
    """
    nbytes = (width + 7) // 8
    tables = [[0.0] * 256 for __ in range(nbytes)]
    total = 0.0
    for value, weight in pairs:
        total += weight
        for table, byte in zip(tables, value.to_bytes(nbytes, "little")):
            if byte:
                table[byte] += weight
    ones = [0.0] * (8 * nbytes)
    for index, table in enumerate(tables):
        for byte, weight in enumerate(table):
            if not weight:
                continue
            while byte:
                lowest = byte & -byte
                ones[8 * index + lowest.bit_length() - 1] += weight
                byte ^= lowest
    return total, ones[:width]


#: Distinct values an entry's histogram may hold before it is folded.
FOLD_AT = 1024


def _fold(held: Dict[int, float], width: int) -> Dict[int, float]:
    """An equivalent histogram of at most ``width + 1`` values: one-hot
    values carry the per-bit weights, value 0 the (maybe negative) rest;
    exact for integral weights, as :func:`bit_weights` is linear."""
    total, ones = bit_weights(held.items(), width)
    folded = {1 << bit: weight for bit, weight in enumerate(ones) if weight}
    folded[0] = total - sum(ones)
    return folded


def worst_of(bias: Iterable[float]) -> float:
    """Worst imbalance of a bias vector, as max(bias, 1-bias)."""
    return float(max(max(b, 1.0 - b) for b in bias))


def _as_floats(values):
    return values if np is None else np.asarray(values, dtype=np.float64)


def _bias(total: float, ones: Sequence[float]) -> List[float]:
    """Bias to zero per position; 0.5 where nothing was observed."""
    if total <= 0.0:
        return [0.5] * len(ones)
    return [(total - one) / total for one in ones]


class BitBiasAccumulator:
    """Residency accounting for a matrix of bit cells.

    Parameters
    ----------
    entries:
        Number of rows (structure entries).
    width:
        Number of bit cells per entry.
    initial_value:
        Value every entry holds at time zero (real silicon powers up to
        *something*; the paper's FP discussion notes the impact of the
        initial non-inverted content).
    """

    def __init__(self, entries: int, width: int, initial_value: int = 0) -> None:
        if entries <= 0 or width <= 0:
            raise ValueError("entries and width must be positive")
        self.entries = entries
        self.width = width
        self._check_value(initial_value)
        self.initial_value = initial_value
        self.reset()

    def reset(self) -> None:
        """Discard all residency history and restart at time zero."""
        self._value = [self.initial_value] * self.entries
        self._since = [0.0] * self.entries
        self._held: List[Dict[int, float]] = [{} for __ in range(self.entries)]

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def set_value(self, entry: int, value: int, now: float) -> None:
        """Record that ``entry`` changes to ``value`` at time ``now``."""
        if value >> self.width:  # -1 for any negative value, too
            self._check_value(value)
        self._close(entry, now)
        self._value[entry] = value

    def current_value(self, entry: int) -> int:
        return self._value[entry]

    def finalize(self, now: float) -> None:
        """Close all open intervals at time ``now`` (end of simulation)."""
        for entry in range(self.entries):
            self._close(entry, now)

    def _close(self, entry: int, now: float) -> None:
        duration = now - self._since[entry]
        if duration < 0.0:
            raise ValueError(
                f"time went backwards for entry {entry}: "
                f"{self._since[entry]} -> {now}"
            )
        if duration > 0.0:
            held = self._held[entry]
            value = self._value[entry]
            held[value] = held.get(value, 0.0) + duration
            if len(held) > FOLD_AT:
                self._held[entry] = _fold(held, self.width)
        self._since[entry] = now

    def _check_value(self, value: int) -> None:
        if value < 0 or value >> self.width:
            raise ValueError(f"value {value!r} does not fit in {self.width} bits")

    # ------------------------------------------------------------------
    # Analysis
    # ------------------------------------------------------------------
    def bias_to_zero(self):
        """Per-bit-position bias towards "0", aggregated over entries.

        This is the quantity plotted on the Y axis of Figures 6 and 8.
        Positions never exercised report 0.5 (no stress information).
        Returns a float64 array, or a list without numpy.
        """
        pairs = (item for held in self._held for item in held.items())
        return _as_floats(_bias(*bit_weights(pairs, self.width)))

    def cell_bias_to_zero(self):
        """Per-cell (entries x width) bias towards "0"."""
        return _as_floats([
            _bias(*bit_weights(held.items(), self.width))
            for held in self._held
        ])

    @property
    def time_zero(self):
        """Per-cell (entries x width) closed time holding "0"."""
        cells = (bit_weights(held.items(), self.width) for held in self._held)
        return _as_floats([[total - one for one in ones] for total, ones in cells])

    @property
    def time_one(self):
        """Per-cell (entries x width) closed time holding "1"."""
        return _as_floats([bit_weights(held.items(), self.width)[1]
                           for held in self._held])

    def worst_bias(self) -> float:
        """Worst per-bit-position imbalance, as max(bias, 1-bias)."""
        return worst_of(self.bias_to_zero())

    def worst_bit(self) -> Tuple[int, float]:
        """(bit position, bias) of the most imbalanced aggregated bit."""
        bias = self.bias_to_zero()
        best_index, best = 0, -1.0
        for index, b in enumerate(bias):
            imbalance = max(b, 1.0 - b)
            if imbalance > best:
                best_index, best = index, imbalance
        return best_index, float(bias[best_index])

    def total_observed_time(self) -> float:
        """Sum of every cell's closed residency time."""
        return float(sum(sum(held.values()) for held in self._held)
                     * self.width)

    # ------------------------------------------------------------------
    # Telemetry (MetricSource)
    # ------------------------------------------------------------------
    def metrics(self) -> MetricSet:
        """Live metric tree over the residency accounting.

        Bias reads aggregate only *closed* intervals (the histograms);
        intervals still open at snapshot time contribute after the next
        value change or :meth:`finalize` — reading never mutates.
        """
        ms = MetricSet()
        ms.counter("observed_time", read=self.total_observed_time,
                   help="sum of all closed residency intervals")
        ms.gauge("worst_bias", read=self.worst_bias)
        return ms
