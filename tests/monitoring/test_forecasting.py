"""Tests for the NWS forecaster battery."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.monitoring.nws.forecasting import (
    ExponentialSmoothing,
    ForecasterBattery,
    LastValue,
    MedianWindow,
    RunningMean,
    SlidingWindowMean,
    default_battery,
)


class TestIndividualForecasters:
    def test_last_value(self):
        f = LastValue()
        assert f.predict() is None
        f.update(3.0)
        f.update(7.0)
        assert f.predict() == 7.0

    def test_running_mean(self):
        f = RunningMean()
        assert f.predict() is None
        for v in [2.0, 4.0, 6.0]:
            f.update(v)
        assert f.predict() == pytest.approx(4.0)

    def test_sliding_window_mean(self):
        f = SlidingWindowMean(2)
        for v in [10.0, 2.0, 4.0]:
            f.update(v)
        assert f.predict() == pytest.approx(3.0)  # last two only

    def test_median_window(self):
        f = MedianWindow(3)
        for v in [1.0, 100.0, 2.0]:
            f.update(v)
        assert f.predict() == 2.0

    def test_median_robust_to_outlier(self):
        f = MedianWindow(5)
        for v in [5.0, 5.0, 5.0, 5.0, 1000.0]:
            f.update(v)
        assert f.predict() == 5.0

    def test_exponential_smoothing(self):
        f = ExponentialSmoothing(0.5)
        f.update(0.0)
        f.update(10.0)
        assert f.predict() == pytest.approx(5.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            SlidingWindowMean(0)
        with pytest.raises(ValueError):
            MedianWindow(-1)
        with pytest.raises(ValueError):
            ExponentialSmoothing(0.0)
        with pytest.raises(ValueError):
            ExponentialSmoothing(1.5)


class TestBattery:
    def test_empty_battery_rejected(self):
        with pytest.raises(ValueError):
            ForecasterBattery([])

    def test_unscored_forecasters_have_infinite_mae(self):
        battery = ForecasterBattery()
        for f in battery.forecasters:
            assert math.isinf(battery.mae(f.name))

    def test_forecast_none_before_data(self):
        prediction, name = ForecasterBattery().forecast()
        assert prediction is None
        assert name is not None

    def test_constant_series_predicted_exactly(self):
        battery = ForecasterBattery()
        for _ in range(20):
            battery.update((42.0,))
        prediction, _ = battery.forecast()
        assert prediction == pytest.approx(42.0)

    def test_last_value_wins_on_trending_series(self):
        """On a steady ramp, last-value beats the running mean."""
        battery = ForecasterBattery()
        for i in range(100):
            battery.update((float(i),))
        assert battery.mae("last-value") < battery.mae("running-mean")

    def test_median_wins_on_spiky_series(self):
        """With rare large spikes, windowed medians beat last-value."""
        battery = ForecasterBattery()
        for i in range(200):
            value = 1000.0 if i % 10 == 9 else 10.0
            battery.update((value,))
        assert battery.mae("median-5") < battery.mae("last-value")

    def test_observation_count(self):
        battery = ForecasterBattery()
        for _ in range(7):
            battery.update((1.0,))
        assert battery.observations == 7

    def test_default_battery_names_unique(self):
        names = [f.name for f in default_battery()]
        assert len(names) == len(set(names))

    @given(st.lists(st.floats(0.1, 1e6), min_size=3, max_size=60))
    @settings(max_examples=100, deadline=None)
    def test_forecast_within_observed_range(self, values):
        """Every battery member interpolates, so the adaptive forecast
        stays within [min, max] of the data."""
        battery = ForecasterBattery()
        for v in values:
            battery.update((v,))
        prediction, _ = battery.forecast()
        assert min(values) - 1e-6 <= prediction <= max(values) + 1e-6
