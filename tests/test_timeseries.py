"""Tests for SampleSeries."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.timeseries import SampleSeries


class TestSampleSeries:
    def test_append_and_latest(self):
        series = SampleSeries()
        assert series.latest is None
        series.append(1.0, 10.0)
        series.append(2.0, 20.0)
        assert series.latest == (2.0, 20.0)
        assert len(series) == 2

    def test_window_selects_inclusive_range(self):
        series = SampleSeries()
        for t in range(10):
            series.append(float(t), float(t * t))
        window = series.window(2.0, 4.0)
        assert [t for t, _ in window] == [2.0, 3.0, 4.0]

    def test_mean_over_window(self):
        series = SampleSeries()
        for t, v in [(0, 1.0), (1, 2.0), (2, 3.0)]:
            series.append(t, v)
        assert series.mean(1, 2) == pytest.approx(2.5)
        assert series.mean() == pytest.approx(2.0)

    def test_mean_empty_is_nan(self):
        assert math.isnan(SampleSeries().mean())

    def test_min_max_std(self):
        series = SampleSeries()
        for t, v in enumerate([4.0, 6.0]):
            series.append(float(t), v)
        assert series.minimum() == 4.0
        assert series.maximum() == 6.0
        assert series.std() == pytest.approx(1.0)

    def test_recent(self):
        series = SampleSeries()
        for t in range(5):
            series.append(float(t), float(t))
        assert series.recent(2) == [3.0, 4.0]
        assert series.recent(0) == []
        with pytest.raises(ValueError):
            series.recent(-1)

    def test_max_samples_evicts_oldest(self):
        series = SampleSeries(max_samples=3)
        for t in range(5):
            series.append(float(t), float(t))
        assert series.values() == [2.0, 3.0, 4.0]

    def test_non_monotone_rejected(self):
        series = SampleSeries()
        series.append(5.0, 1.0)
        with pytest.raises(ValueError):
            series.append(4.0, 1.0)

    def test_iteration_yields_pairs(self):
        series = SampleSeries()
        series.append(1.0, 2.0)
        assert list(series) == [(1.0, 2.0)]

    @given(st.lists(st.floats(-100, 100), min_size=1, max_size=30))
    @settings(max_examples=100, deadline=None)
    def test_mean_bounded_by_min_max(self, values):
        series = SampleSeries()
        for t, v in enumerate(values):
            series.append(float(t), v)
        assert series.minimum() - 1e-9 <= series.mean() <= series.maximum() + 1e-9
