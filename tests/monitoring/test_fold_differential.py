"""Differential battery: chunked forecaster folding vs one reading at a time.

:meth:`ForecasterBattery.update` folds a whole sequence of readings,
forecaster by forecaster, and each built-in forecaster folds it in its
own loop (:meth:`Forecaster.fold`).  The claim is that the result does
not depend on how a series is split into calls: every forecaster's
prediction, error sum and scored count, the battery's MAEs, best
forecaster, forecast and observation count are bit-identical to the
textbook fold, which asks each forecaster for ``predict()`` and then
``update(value)``, one reading at a time.  The reference here is that
textbook fold, so it also checks each built-in ``fold`` against the
same forecaster's ``predict``/``update``.
"""

import math
import struct

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.monitoring.nws.forecasting import (
    ExponentialSmoothing,
    Forecaster,
    ForecasterBattery,
    LastValue,
    MedianWindow,
    RunningMean,
    SlidingWindowMean,
    default_battery,
)


class _Midrange(Forecaster):
    """A custom forecaster that relies on the base-class ``fold``:
    predicts the midpoint of the last three readings' range."""

    __slots__ = ("_recent",)

    name = "midrange-3"

    def __init__(self):
        self._recent = []

    def update(self, value):
        self._recent = (self._recent + [value])[-3:]

    def predict(self):
        if not self._recent:
            return None
        return (min(self._recent) + max(self._recent)) / 2


def _custom_battery():
    return [
        _Midrange(), MedianWindow(2), SlidingWindowMean(1),
        ExponentialSmoothing(1.0), LastValue(), RunningMean(),
    ]


FACTORIES = {"default": default_battery, "custom": _custom_battery}


class _TextbookBattery:
    """Scores and ingests one reading at a time through ``predict`` and
    ``update`` only."""

    def __init__(self, forecasters):
        self.forecasters = forecasters
        self.abs_error = [0.0] * len(forecasters)
        self.scored = [0] * len(forecasters)
        self.observations = 0

    def update(self, value):
        for index, forecaster in enumerate(self.forecasters):
            pending = forecaster.predict()
            if pending is not None:
                self.abs_error[index] += abs(pending - value)
                self.scored[index] += 1
            forecaster.update(value)
        self.observations += 1

    def maes(self):
        return [
            math.inf if count == 0 else error / count
            for error, count in zip(self.abs_error, self.scored)
        ]

    def best(self):
        maes = self.maes()
        return self.forecasters[maes.index(min(maes))]


def _bits(value):
    return None if value is None else struct.pack("<d", value)


def _state(battery):
    """Everything a battery reports, with floats as their bit patterns."""
    names = [forecaster.name for forecaster in battery.forecasters]
    prediction, best = battery.forecast()
    return (
        names,
        [_bits(forecaster.predict()) for forecaster in battery.forecasters],
        [_bits(error) for error in battery._abs_error],
        list(battery._scored),
        [_bits(battery.mae(name)) for name in names],
        battery.best_name(), best, _bits(prediction),
        battery.observations,
    )


def _reference_state(reference):
    names = [forecaster.name for forecaster in reference.forecasters]
    best = reference.best()
    prediction = best.predict()
    return (
        names,
        [_bits(forecaster.predict()) for forecaster in reference.forecasters],
        [_bits(error) for error in reference.abs_error],
        list(reference.scored),
        [_bits(mae) for mae in reference.maes()],
        best.name, best.name, _bits(prediction),
        reference.observations,
    )


#: Values drawn partly from a small pool, so equal readings, signed
#: zeros and tied forecaster errors are common; the rest span +-1e9.
_value = st.one_of(
    st.sampled_from([
        0.0, -0.0, 1.0, -1.0, 2.5, 1e9, -1e9, 1e9 - 0.5, 999999999.25,
    ]),
    st.floats(min_value=-1e9, max_value=1e9, allow_nan=False),
)


@settings(max_examples=300, deadline=None)
@given(
    values=st.lists(_value, max_size=80),
    factory=st.sampled_from(sorted(FACTORIES)),
    data=st.data(),
)
def test_chunked_update_matches_textbook_fold(values, factory, data):
    cuts = sorted(data.draw(
        st.lists(st.integers(0, len(values)), max_size=12), label="cuts",
    ))
    battery = ForecasterBattery(FACTORIES[factory]())
    reference = _TextbookBattery(FACTORIES[factory]())
    assert _state(battery) == _reference_state(reference)
    start = 0
    for number, end in enumerate(cuts + [len(values)]):
        # Repeated cuts give empty chunks; tuples and lists both fold.
        chunk = values[start:end]
        battery.update(tuple(chunk) if number % 2 else chunk)
        for value in chunk:
            reference.update(value)
        assert _state(battery) == _reference_state(reference)
        start = end

