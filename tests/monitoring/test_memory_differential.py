"""Differential battery: the lazy NWS memory vs an eager reference.

:class:`repro.monitoring.nws.NwsMemory` folds a series' readings into
its forecaster battery only when the series' forecast or battery is
asked for, or when the bound evicts a reading the battery has not seen
(then it folds a chunk ahead: that reading and the oldest ones still
stored).  The claim is that the battery still sees every accepted
reading exactly once and in arrival order, so every answer is the one
a battery fed on every store gives.  The memory must therefore match
:class:`tests.monitoring.memory_reference.EagerMemory` bit for bit: the
prediction, every forecaster's MAE, the best forecaster's name, the
observation count and, with observability on, the
``nws.forecast_abs_error`` histograms — whatever the interleaving of
stores, rejected stores, queries, freezes and thaws, and whatever the
series bound.
"""

import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.monitoring.nws import NwsMemory, series_key
from repro.monitoring.nws.forecasting import (
    ExponentialSmoothing,
    Forecaster,
    MedianWindow,
    SlidingWindowMean,
    default_battery,
)
from repro.monitoring.nws.memory import FOLD_CHUNK
from repro.sim import Simulator
from tests.monitoring.memory_reference import EagerMemory

#: Two bandwidth series and one CPU series, so the error histograms get
#: two resource labels; index 3 is a key that is never stored.
KEYS = (
    series_key("bandwidth", "a", "b"),
    series_key("bandwidth", "b", "a"),
    series_key("cpu", "a"),
    series_key("bandwidth", "a", "c"),
)


class _TwiceLast(Forecaster):
    """A custom forecaster that relies on the default ``fold``."""

    __slots__ = ("_last",)

    name = "twice-last"

    def __init__(self):
        self._last = None

    def update(self, value):
        self._last = value

    def predict(self):
        return None if self._last is None else 2.0 * self._last


def _custom_battery():
    return [
        MedianWindow(3), _TwiceLast(), ExponentialSmoothing(0.5),
        SlidingWindowMean(2),
    ]


#: Values drawn partly from a small pool, so equal readings and tied
#: forecaster errors are common.
_value = st.one_of(
    st.sampled_from([0.0, 1.0, 2.5, 1e6, 1e8]),
    st.floats(min_value=-1e9, max_value=1e9, allow_nan=False),
)
_store = st.tuples(
    st.just("store"), st.integers(0, 2), st.integers(-2, 3), _value
)
_op = st.one_of(
    _store, _store, _store, _store,
    st.tuples(st.just("forecast"), st.integers(0, 3)),
    st.tuples(st.just("battery"), st.integers(0, 3)),
    st.tuples(st.just("freeze")),
    st.tuples(st.just("thaw")),
)


def _bits(value):
    return None if value is None else struct.pack("<d", value)


def _forecast(memory, key):
    prediction, name = memory.forecast(key)
    return _bits(prediction), name


def _battery(memory, key):
    try:
        battery = memory.battery(key)
    except KeyError:
        return "absent"
    names = [forecaster.name for forecaster in battery.forecasters]
    prediction, best = battery.forecast()
    return (
        names, battery.observations, battery.best_name(), best,
        _bits(prediction), [_bits(battery.mae(name)) for name in names],
    )


def _histograms(memory):
    return [
        histogram.as_dict()
        for histogram in memory.sim.obs.metrics.instruments("histogram")
        if histogram.name == "nws.forecast_abs_error"
    ]


def _outcome(call):
    try:
        call()
    except ValueError as error:
        return str(error)
    return None


def _store_outcome(memory, key, time, value):
    return _outcome(lambda: memory.store(key, time, value))


def _assert_same(lazy, eager, script, accepted):
    """Run ``script`` on both memories, comparing every answer."""
    clock = 0.0
    for op in script:
        kind = op[0]
        if kind == "store":
            _, index, step, value = op
            time = clock + step
            clock = max(clock, time)
            key = KEYS[index]
            outcome = _store_outcome(lazy, key, time, value)
            assert outcome == _store_outcome(eager, key, time, value)
            if outcome is None and not lazy.is_frozen:
                accepted[key] = accepted.get(key, 0) + 1
        elif kind == "forecast":
            key = KEYS[op[1]]
            assert _forecast(lazy, key) == _forecast(eager, key)
        elif kind == "battery":
            key = KEYS[op[1]]
            assert _battery(lazy, key) == _battery(eager, key)
        else:
            getattr(lazy, kind)()
            getattr(eager, kind)()
        assert _histograms(lazy) == _histograms(eager)
        bound = lazy.max_samples_per_series
        if bound is not None:
            # The battery trails each series by at most the bound.
            assert lazy.folded >= sum(
                max(0, count - bound) for count in accepted.values()
            )


@settings(max_examples=300, deadline=None)
@given(
    script=st.lists(_op, max_size=60),
    bound=st.one_of(st.integers(1, 8), st.none()),
    factory=st.sampled_from([default_battery, _custom_battery]),
    observe=st.booleans(),
)
def test_lazy_memory_matches_eager_reference(script, bound, factory, observe):
    lazy = NwsMemory(
        Simulator(observe=observe), max_samples_per_series=bound,
        battery_factory=factory,
    )
    eager = EagerMemory(
        Simulator(observe=observe), max_samples_per_series=bound,
        battery_factory=factory,
    )
    accepted = {}
    _assert_same(lazy, eager, script, accepted)

    assert lazy.keys() == eager.keys()
    assert lazy.measurements_dropped == eager.measurements_dropped
    for key in KEYS:
        assert _forecast(lazy, key) == _forecast(eager, key)
        assert _battery(lazy, key) == _battery(eager, key)
        if key in accepted:
            assert list(lazy.series(key)) == list(eager.series(key))
    # Every accepted reading was folded exactly once.
    assert lazy.folded == sum(accepted.values())
    assert _histograms(lazy) == _histograms(eager)


KEY = KEYS[0]


def test_store_folds_nothing_until_asked():
    memory = NwsMemory(Simulator(), max_samples_per_series=4)
    for time in range(4):
        memory.store(KEY, time, float(time))
    assert memory.folded == 0
    assert memory.battery(KEY).observations == 4
    assert memory.folded == 4
    memory.forecast(KEY)
    assert memory.folded == 4


def test_eviction_folds_only_the_unseen_reading():
    memory = NwsMemory(Simulator(), max_samples_per_series=3)
    for time in range(4):
        memory.store(KEY, time, float(time))
    # Reading 0 left the full, never-queried series unseen: it was
    # folded with the whole series behind it, since the bound is below
    # the fold chunk.
    assert memory.folded == 4
    memory.store(KEY, 4, 4.0)
    # Reading 1 had been folded, so its eviction folds nothing.
    assert memory.folded == 4
    assert memory.series(KEY).values() == [2.0, 3.0, 4.0]
    assert memory.battery(KEY).observations == 5
    # Caught up: the next eviction drops a reading already folded.
    memory.store(KEY, 5, 5.0)
    assert memory.folded == 5


def test_unseen_eviction_folds_one_chunk_ahead():
    bound = FOLD_CHUNK + 8
    lazy = NwsMemory(Simulator(), max_samples_per_series=bound)
    eager = EagerMemory(Simulator(), max_samples_per_series=bound)
    folds = []
    for time in range(bound + 2 * FOLD_CHUNK + 1):
        value = float((time * 7919) % 23)
        lazy.store(KEY, time, value)
        eager.store(KEY, time, value)
        folds.append(lazy.folded)
    # Each unseen eviction folds exactly one chunk, and the next one
    # comes once the bound again holds only unfolded readings.
    assert folds[bound - 1] == 0
    assert folds[bound] == FOLD_CHUNK
    assert folds[bound + FOLD_CHUNK - 1] == FOLD_CHUNK
    assert folds[bound + FOLD_CHUNK] == 2 * FOLD_CHUNK
    assert folds[-1] == 3 * FOLD_CHUNK
    stored = len(folds)
    assert stored - lazy.folded <= bound
    assert _battery(lazy, KEY) == _battery(eager, KEY)
    assert lazy.folded == stored


def test_rejected_store_leaves_the_battery_untouched():
    memory = NwsMemory(Simulator(), max_samples_per_series=2)
    memory.store(KEY, 5.0, 1.0)
    memory.store(KEY, 6.0, 2.0)
    with pytest.raises(ValueError):
        memory.store(KEY, 4.0, 3.0)
    assert memory.folded == 0
    assert memory.series(KEY).values() == [1.0, 2.0]
    assert memory.battery(KEY).observations == 2


def _counting_factory():
    """A default battery factory that counts its calls."""
    built = []

    def factory():
        built.append(1)
        return default_battery()

    return factory, built


def test_unqueried_series_builds_no_battery():
    factory, built = _counting_factory()
    memory = NwsMemory(
        Simulator(), max_samples_per_series=4, battery_factory=factory,
    )
    for time in range(4):
        for key in KEYS[:3]:
            memory.store(key, time, float(time))
    # Reading the raw series answers nothing from a battery.
    memory.latest(KEY)
    memory.series(KEY)
    assert memory.forecast(KEYS[3]) == (None, None)
    assert built == []
    assert memory.folded == 0


@pytest.mark.parametrize("first_fold", [
    "forecast", "battery", "unseen eviction", "observed store",
])
def test_first_fold_builds_one_battery(first_fold):
    factory, built = _counting_factory()
    memory = NwsMemory(
        Simulator(observe=first_fold == "observed store"),
        max_samples_per_series=3, battery_factory=factory,
    )
    stored = 0

    def store():
        nonlocal stored
        memory.store(KEY, stored, float(stored))
        stored += 1

    store()
    assert built == []
    if first_fold == "forecast":
        memory.forecast(KEY)
    elif first_fold == "battery":
        memory.battery(KEY)
    elif first_fold == "unseen eviction":
        for _ in range(3):
            store()
        # The evicted reading and the three still stored.
        assert memory.folded == 4
    else:
        store()
    assert len(built) == 1
    # Later folds, queries and evictions reuse that battery.
    for _ in range(6):
        store()
        memory.forecast(KEY)
    assert memory.battery(KEY).observations == memory.folded == stored
    assert len(built) == 1
