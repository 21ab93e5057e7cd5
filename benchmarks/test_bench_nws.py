"""Microbenchmarks: storing into and forecasting from the NWS memory.

Every NWS sensor reading goes through :meth:`NwsMemory.store`.  The
memory appends the reading and folds it into the series' forecaster
battery only when the series' forecast is asked for, or when the
1,000-reading bound is about to evict it unseen; then it folds a chunk
of ``FOLD_CHUNK`` readings at once.  The reference kept under
``tests/monitoring/`` folds every reading on arrival.  Seeded readings
of one bandwidth series:

* ``test_bench_store[filling]`` stores 1,000 readings into an empty
  series, which never evicts, so the memory folds nothing;
* ``test_bench_store[full]`` stores 1,000 readings into a full series
  that was never queried, the steady state of every series nobody
  forecasts: every ``FOLD_CHUNK``-th store evicts an unseen reading and
  folds it with the oldest readings still stored, one chunk per call;
* ``test_bench_first_forecast`` times the first ``forecast`` after
  1,000 unqueried readings, where the memory pays for the whole
  backlog at once.

Both memories must then report the same forecast.  Run with
``PYTHONPATH=src python -m pytest benchmarks/test_bench_nws.py
--benchmark-only``.
"""

import random

import pytest

from repro.monitoring.nws import NwsMemory, series_key
from repro.sim import Simulator
from tests.monitoring.memory_reference import EagerMemory

MEMORIES = {"memory": NwsMemory, "reference": EagerMemory}
BOUND = 1000
KEY = series_key("bandwidth", "a", "b")


def _readings(start, count, seed=0):
    """``(time, value)`` readings of the ``KEY`` series."""
    rng = random.Random(seed + start)
    return [
        (float(time), rng.uniform(1e7, 1e8))
        for time in range(start, start + count)
    ]


def _memory(kind, readings):
    memory = MEMORIES[kind](Simulator(), max_samples_per_series=BOUND)
    for time, value in readings:
        memory.store(KEY, time, value)
    return memory


def _store_all(memory, readings):
    store = memory.store
    for time, value in readings:
        store(KEY, time, value)
    return memory


@pytest.mark.parametrize("memory", sorted(MEMORIES))
@pytest.mark.parametrize("series", ["filling", "full"])
def test_bench_store(benchmark, memory, series):
    history = _readings(0, BOUND) if series == "full" else []
    arriving = _readings(len(history), BOUND)
    benchmark.group = f"nws_store[{series}]"
    stored = benchmark.pedantic(
        _store_all,
        setup=lambda: ((_memory(memory, history), arriving), {}),
        rounds=20,
    )
    expected = _memory("reference", history + arriving)
    assert stored.forecast(KEY) == expected.forecast(KEY)


@pytest.mark.parametrize("memory", sorted(MEMORIES))
def test_bench_first_forecast(benchmark, memory):
    history = _readings(0, BOUND)
    benchmark.group = "nws_first_forecast"
    answer = benchmark.pedantic(
        lambda queried: queried.forecast(KEY),
        setup=lambda: ((_memory(memory, history),), {}),
        rounds=50,
    )
    assert answer == _memory("reference", history).forecast(KEY)
