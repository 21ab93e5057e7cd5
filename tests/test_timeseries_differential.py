"""Differential battery: :class:`SampleSeries` vs a plain-list reference.

A bounded :class:`SampleSeries` evicts by advancing a start offset and
trims the dead prefix of its lists in blocks.  The claim is that no
answer can tell: every eviction's return value, the length, iteration,
``latest``, ``values``, ``times``, ``window``, ``recent``, ``oldest``
and the windowed statistics equal those of :class:`_ListSeries`, which
keeps the live samples in one list and evicts with ``pop(0)``.  The
bounds straddle the trim block's edges (a thirty-second of the bound) and
each script wraps the bound many times; queries ask for more samples
than are stored and for windows that start or end outside the data,
including among evicted times.
"""

import math
import random
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.timeseries import SampleSeries

BOUNDS = [1, 2, 3, 63, 64, 65, 1000, None]


class _ListSeries:
    """The live samples as one list of ``(time, value)``; O(n) eviction."""

    def __init__(self, bound):
        self.bound = bound
        self.samples = []
        #: Time of the newest evicted sample (a window edge just
        #: outside the live data), or None before the first eviction.
        self.last_evicted = None

    def append(self, time, value):
        if self.samples and time < self.samples[-1][0]:
            raise ValueError("non-monotone")
        self.samples.append((float(time), float(value)))
        if self.bound is not None and len(self.samples) > self.bound:
            self.last_evicted, value = self.samples.pop(0)
            return value
        return None

    def values(self):
        return [value for _, value in self.samples]

    def window_values(self, t0, t1):
        return [
            value for time, value in self.samples
            if (t0 is None or t0 <= time) and (t1 is None or time <= t1)
        ]


def _bits(value):
    return struct.pack("<d", value)


def _stats(values):
    """Mean, minimum, maximum and population std, as bit patterns."""
    if not values:
        return [_bits(math.nan)] * 4
    mu = math.fsum(values) / len(values)
    std = math.sqrt(math.fsum((v - mu) ** 2 for v in values) / len(values))
    return [_bits(mu), _bits(min(values)), _bits(max(values)), _bits(std)]


def _series_stats(series, t0, t1):
    return [
        _bits(series.mean(t0, t1)), _bits(series.minimum(t0, t1)),
        _bits(series.maximum(t0, t1)), _bits(series.std(t0, t1)),
    ]


def _assert_same(series, reference, probes, rng):
    samples = reference.samples
    values = reference.values()
    assert len(series) == len(samples)
    assert list(series) == samples
    assert series.latest == (samples[-1] if samples else None)
    assert series.values() == values
    assert series.times() == [time for time, _ in samples]
    assert repr(series) == f"<SampleSeries {len(samples)} samples>"
    for n in {0, 1, 2, max(0, len(samples) - 1), len(samples),
              len(samples) + 3}:
        assert series.recent(n) == (values[max(0, len(values) - n):]
                                    if n else [])
        assert series.oldest(n) == values[:n]
    assert _series_stats(series, None, None) == _stats(values)
    # Window edges among the live times, the evicted times and beyond.
    edges = [(rng.choice(probes), rng.choice(probes)) for _ in range(6)]
    if reference.last_evicted is not None:
        evicted = reference.last_evicted
        edges += [(evicted, math.inf), (-math.inf, evicted),
                  (evicted, samples[0][0])]
    for t0, t1 in edges:
        expected = [
            sample for sample in samples if t0 <= sample[0] <= t1
        ]
        assert series.window(t0, t1) == expected
        for lo, hi in ((t0, t1), (t0, None), (None, t1)):
            assert _series_stats(series, lo, hi) == _stats(
                reference.window_values(lo, hi)
            )


#: (samples to append, largest time step, value seed); a step of -1
#: makes the run's first append go back in time, which both reject.
_run = st.tuples(
    st.integers(1, 700), st.integers(-1, 3), st.integers(0, 2**16),
)


@pytest.mark.parametrize("bound", BOUNDS, ids=str)
@settings(max_examples=25, deadline=None)
@given(runs=st.lists(_run, min_size=1, max_size=8))
def test_series_matches_list_reference(bound, runs):
    series = SampleSeries(max_samples=bound)
    reference = _ListSeries(bound)
    clock = 0.0
    probes = [-math.inf, math.inf, -1.0, 0.0]
    for count, step, seed in runs:
        rng = random.Random(seed)
        for index in range(count):
            if step < 0 and index == 0 and reference.samples:
                time = clock - 1.0
            else:
                # Steps of 0 repeat a time, so windows see equal times.
                time = clock + rng.randint(0, max(step, 0))
            value = rng.choice([0.0, -0.0, 1.5, rng.uniform(-1e9, 1e9)])
            try:
                expected = reference.append(time, value)
            except ValueError:
                with pytest.raises(ValueError):
                    series.append(time, value)
                continue
            assert _bits_or_none(series.append(time, value)) == (
                _bits_or_none(expected)
            )
            clock = time
            probes.append(time)
            probes.append(time + 0.5)
        _assert_same(series, reference, probes, rng)


def _bits_or_none(value):
    return None if value is None else _bits(value)


@pytest.mark.parametrize("bound", BOUNDS, ids=str)
def test_every_append_of_a_long_run(bound):
    """Checks after every append below a bound of 100, and after every
    97th and the last hundred appends above it, across many trims."""
    series = SampleSeries(max_samples=bound)
    reference = _ListSeries(bound)
    rng = random.Random(str(bound))
    probes = [-math.inf, math.inf]
    for time in range(2200):
        value = float(rng.randint(-3, 3))
        assert series.append(time, value) == reference.append(time, value)
        probes.append(time - 0.5)
        if (bound is not None and bound < 100) or time % 97 == 0 \
                or time > 2100:
            _assert_same(series, reference, probes, rng)
