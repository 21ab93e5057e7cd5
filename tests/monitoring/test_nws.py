"""Tests for NWS components: nameserver, memory, sensors."""

import math
from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro import obs
from repro.grid import DataGrid
from repro.monitoring.nws import (
    BandwidthSensor,
    CpuSensor,
    NameServer,
    NwsMemory,
    Sensor,
    series_key,
)
from repro.monitoring.nws.memory import FOLD_CHUNK
from repro.sim import Simulator
from repro.sim.events import Event, Timeout
from repro.testbed import build_testbed
from repro.units import mbit_per_s

from tests.conftest import build_two_host_grid


class TestNameServer:
    def test_register_lookup_roundtrip(self):
        ns = NameServer()
        sentinel = object()
        ns.register("memory", "m1", sentinel)
        assert ns.lookup("memory", "m1") is sentinel
        assert ns.names("memory") == ["m1"]

    def test_duplicate_rejected(self):
        ns = NameServer()
        ns.register("sensor", "s", object())
        with pytest.raises(ValueError):
            ns.register("sensor", "s", object())

    def test_unknown_kind_rejected(self):
        ns = NameServer()
        with pytest.raises(ValueError):
            ns.register("daemon", "x", object())

    def test_unregister(self):
        ns = NameServer()
        ns.register("sensor", "s", object())
        ns.unregister("sensor", "s")
        assert ns.names("sensor") == []
        with pytest.raises(KeyError):
            ns.unregister("sensor", "s")


class TestNwsMemory:
    def test_store_and_latest(self):
        grid = build_two_host_grid()
        memory = NwsMemory(grid.sim)
        key = series_key("cpu", "src")
        memory.store(key, 1.0, 0.8)
        assert memory.has_series(key)
        assert memory.latest(key) == (1.0, 0.8)

    def test_forecast_improves_with_data(self):
        grid = build_two_host_grid()
        memory = NwsMemory(grid.sim)
        key = series_key("bandwidth", "a", "b")
        assert memory.forecast(key) == (None, None)
        for t in range(10):
            memory.store(key, float(t), 100.0)
        forecast, name = memory.forecast(key)
        assert forecast == pytest.approx(100.0)
        assert name is not None

    def test_bounded_history(self):
        grid = build_two_host_grid()
        memory = NwsMemory(grid.sim, max_samples_per_series=5)
        key = series_key("cpu", "h")
        for t in range(20):
            memory.store(key, float(t), 0.5)
        assert len(memory.series(key)) == 5

    def test_only_queried_series_fold_beyond_evictions(self):
        testbed = build_testbed(seed=0, dynamic=True)
        memory = testbed.nws_memory
        # Small enough that every series overflows in the run below.
        memory.max_samples_per_series = 8
        stored = Counter()
        store = memory.store

        def counting_store(key, time, value):
            stored[key] += 1
            store(key, time, value)

        memory.store = counting_store
        queried = [
            series_key("bandwidth", "alpha4", "alpha1"),
            series_key("bandwidth", "lz02", "alpha1"),
        ]
        testbed.grid.run(until=150.0)
        for key in queried:
            memory.forecast(key)
        testbed.grid.run(until=300.0)
        for key in queried:
            memory.forecast(key)

        assert len(stored) > 20
        assert min(stored.values()) > 8
        # A queried series has folded every reading.  Any other series
        # folds only when its bound is about to evict an unseen reading,
        # and then folds that reading with the 8 still stored (the bound
        # is below the fold chunk): 9 readings at every 9th store.
        assert FOLD_CHUNK > 8
        expected = sum(
            count if key in queried else 9 * (count // 9)
            for key, count in stored.items()
        )
        assert memory.folded == expected

    def test_keys_listing(self):
        grid = build_two_host_grid()
        memory = NwsMemory(grid.sim)
        memory.store(series_key("cpu", "b"), 0.0, 1.0)
        memory.store(series_key("cpu", "a"), 0.0, 1.0)
        assert len(memory.keys()) == 2


class TestSensors:
    def test_bandwidth_sensor_measures_path(self):
        grid = build_two_host_grid(capacity=mbit_per_s(100), latency=0.0005)
        memory = NwsMemory(grid.sim)
        sensor = BandwidthSensor(
            grid.sim, memory, grid, "src", "dst", period=5.0, noise=0.0
        )
        grid.run(until=30.0)
        key = series_key("bandwidth", "src", "dst")
        assert sensor.measurements_taken >= 5
        _, value = memory.latest(key)
        assert value == pytest.approx(mbit_per_s(100), rel=0.01)

    def test_bandwidth_sensor_sees_contention(self):
        grid = build_two_host_grid(capacity=mbit_per_s(100), latency=0.0005)
        memory = NwsMemory(grid.sim)
        BandwidthSensor(
            grid.sim, memory, grid, "src", "dst", period=5.0, noise=0.0
        )
        grid.network.start_flow("src", "dst", 1e12)
        grid.run(until=30.0)
        _, value = memory.latest(series_key("bandwidth", "src", "dst"))
        assert value == pytest.approx(mbit_per_s(50), rel=0.02)

    def test_bandwidth_sensor_capped_by_tcp(self):
        # Long path: window cap below link rate.
        grid = build_two_host_grid(capacity=mbit_per_s(100), latency=0.020)
        memory = NwsMemory(grid.sim)
        BandwidthSensor(
            grid.sim, memory, grid, "src", "dst", period=5.0, noise=0.0
        )
        grid.run(until=30.0)
        _, value = memory.latest(series_key("bandwidth", "src", "dst"))
        expected = 64 * 1024 / 0.040
        assert value == pytest.approx(expected, rel=0.01)

    def test_cpu_sensor_clamps_noise(self):
        grid = build_two_host_grid()
        memory = NwsMemory(grid.sim)
        CpuSensor(
            grid.sim, memory, grid.host("src"), period=1.0, noise=0.3
        )
        grid.run(until=100.0)
        for _, value in memory.series(series_key("cpu", "src")):
            assert 0.0 <= value <= 1.0

    def test_cpu_sensor_tracks_load(self):
        grid = build_two_host_grid()
        memory = NwsMemory(grid.sim)
        CpuSensor(
            grid.sim, memory, grid.host("src"), period=1.0, noise=0.0
        )
        grid.host("src").cpu.set_background_busy(1.0)  # of 2 cores
        grid.run(until=10.0)
        _, value = memory.latest(series_key("cpu", "src"))
        assert value == pytest.approx(0.5)

    def test_sensor_stop(self):
        grid = build_two_host_grid()
        memory = NwsMemory(grid.sim)
        sensor = CpuSensor(
            grid.sim, memory, grid.host("src"), period=1.0
        )
        grid.run(until=5.0)
        sensor.stop()
        grid.run(until=6.0)
        taken = sensor.measurements_taken
        grid.run(until=50.0)
        assert sensor.measurements_taken == taken

    def test_sensor_registers_with_nameserver(self):
        grid = build_two_host_grid()
        memory = NwsMemory(grid.sim)
        ns = NameServer()
        sensor = CpuSensor(
            grid.sim, memory, grid.host("src"), nameserver=ns
        )
        assert ns.lookup("sensor", "cpu@src") is sensor

    def test_sensor_validation(self):
        grid = build_two_host_grid()
        memory = NwsMemory(grid.sim)
        with pytest.raises(ValueError):
            CpuSensor(grid.sim, memory, grid.host("src"), period=0.0)
        with pytest.raises(ValueError):
            CpuSensor(grid.sim, memory, grid.host("src"), noise=-0.1)

    def test_measurement_noise_is_bounded(self):
        grid = build_two_host_grid(latency=0.0005)
        memory = NwsMemory(grid.sim)
        BandwidthSensor(
            grid.sim, memory, grid, "src", "dst", period=1.0, noise=0.05
        )
        grid.run(until=200.0)
        truth = mbit_per_s(100)
        for _, value in memory.series(series_key("bandwidth", "src", "dst")):
            assert abs(value / truth - 1.0) <= 0.2001  # 4 sigma clamp


class TestTickPath:
    def test_solo_sensor_keeps_one_queued_entry(self):
        grid = build_two_host_grid()
        sim = grid.sim
        sensor = CpuSensor(sim, NwsMemory(sim), grid.host("src"), period=1.0)
        queued = []
        for _ in range(30):
            assert sim.queue_depth == 1
            queued.append(sim._queue[0][3])
            sim.step()
        # The bootstrap event, then one Timeout re-armed on every tick.
        assert type(queued[0]) is Event
        assert type(queued[1]) is Timeout
        assert all(event is queued[1] for event in queued[1:])
        assert sensor.measurements_taken == 29
        assert sim.events_scheduled == sim.events_processed + 1

        sensor.stop()
        assert sim.queue_cancelled() == sim.queue_depth == 1
        sim.run()
        assert sim.queue_depth == 0
        assert sensor.measurements_taken == 29

    def test_stop_before_bootstrap_withdraws_it(self):
        grid = build_two_host_grid()
        sim = grid.sim
        sensor = CpuSensor(sim, NwsMemory(sim), grid.host("src"), period=1.0)
        sensor.stop()
        assert sim.queue_cancelled() == sim.queue_depth == 1
        sim.run()
        assert sim.queue_depth == 0
        assert sim.events_processed == 0
        assert sensor.measurements_taken == 0

    def test_bandwidth_sensor_follows_topology_changes(self):
        # Long path through a router: the probe is window-limited.
        grid = DataGrid(seed=0)
        for name in ("src", "dst"):
            grid.add_host(name, name, cores=2, disk_bandwidth=500e6,
                          disk_capacity=500e9)
        grid.add_router("r")
        grid.connect("src", "r", mbit_per_s(100), latency=0.010)
        grid.connect("r", "dst", mbit_per_s(100), latency=0.010)
        memory = NwsMemory(grid.sim)
        BandwidthSensor(
            grid.sim, memory, grid, "src", "dst", period=5.0, noise=0.0
        )
        key = series_key("bandwidth", "src", "dst")
        grid.run(until=12.0)
        _, value = memory.latest(key)
        assert value == pytest.approx(64 * 1024 / 0.040)

        # A short, narrower direct link appears mid-run: the route and
        # the stream cap both change.
        grid.connect("src", "dst", mbit_per_s(50), latency=0.001)
        grid.run(until=30.0)
        assert [link.key for link in grid.path("src", "dst")] == [
            ("src", "dst")
        ]
        time, value = memory.latest(key)
        assert time > 12.0
        assert value == mbit_per_s(50)

    def test_measurement_counter_counts_every_measurement(self):
        with obs.capture():
            grid = build_two_host_grid()
        memory = NwsMemory(grid.sim)
        sensors = [
            CpuSensor(grid.sim, memory, grid.host("src"), period=1.0),
            BandwidthSensor(grid.sim, memory, grid, "src", "dst",
                            period=3.0),
            BandwidthSensor(grid.sim, memory, grid, "dst", "src",
                            period=3.0, phase=1.0),
        ]
        grid.run(until=40.0)
        metrics = grid.sim.obs.metrics
        for resource in ("cpu", "bandwidth"):
            taken = sum(
                sensor.measurements_taken for sensor in sensors
                if sensor.resource == resource
            )
            assert taken > 10
            assert metrics.counter(
                "nws.measurements", resource=resource
            ).value == taken


class _ConstantSensor(Sensor):
    resource = "constant"

    def read(self):
        return 3.0


class _FixedDraw:
    """A stream whose every normal draw is ``factor``."""

    def __init__(self, factor):
        self.rng = self
        self.factor = factor

    def gauss(self, mean, std):
        return self.factor


@given(
    factor=st.floats(allow_nan=True, allow_infinity=True),
    noise=st.floats(0.001, 1.0),
)
def test_noise_factor_is_clamped_to_four_sigma(factor, noise):
    sensor = _ConstantSensor(
        Simulator(), NwsMemory(Simulator()), "h", noise=noise, phase=0.0,
        stream=_FixedDraw(factor),
    )
    low, high = 1.0 - 4 * noise, 1.0 + 4 * noise
    expected = 3.0 * min(high, max(low, factor))
    value = sensor.measure_once()
    assert value == expected or math.isnan(value) and math.isnan(expected)
    assert 3.0 * low <= value <= 3.0 * high
