"""Tests for NWS components: nameserver, memory, sensors."""

from collections import Counter

import pytest

from repro.monitoring.nws import (
    BandwidthSensor,
    CpuSensor,
    FreeMemorySensor,
    LatencySensor,
    Measurement,
    NameServer,
    NwsMemory,
    series_key,
)
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
        memory.store(Measurement("cpu", "src", None, 1.0, 0.8))
        key = series_key("cpu", "src")
        assert memory.has_series(key)
        assert memory.latest(key) == (1.0, 0.8)

    def test_forecast_improves_with_data(self):
        grid = build_two_host_grid()
        memory = NwsMemory(grid.sim)
        key = series_key("bandwidth", "a", "b")
        assert memory.forecast(key) == (None, None)
        for t in range(10):
            memory.store(
                Measurement("bandwidth", "a", "b", float(t), 100.0)
            )
        forecast, name = memory.forecast(key)
        assert forecast == pytest.approx(100.0)
        assert name is not None

    def test_bounded_history(self):
        grid = build_two_host_grid()
        memory = NwsMemory(grid.sim, max_samples_per_series=5)
        key = series_key("cpu", "h")
        for t in range(20):
            memory.store(Measurement("cpu", "h", None, float(t), 0.5))
        assert len(memory.series(key)) == 5

    def test_only_queried_series_fold_beyond_evictions(self):
        testbed = build_testbed(seed=0, dynamic=True)
        memory = testbed.nws_memory
        # Small enough that every series overflows in the run below.
        memory.max_samples_per_series = 8
        stored = Counter()
        store = memory.store

        def counting_store(measurement):
            stored[measurement.key] += 1
            store(measurement)

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
        # A queried series has folded every reading; any other series
        # only the readings its bound evicted unseen.
        expected = sum(
            count if key in queried else count - 8
            for key, count in stored.items()
        )
        assert memory.folded == expected

    def test_keys_listing(self):
        grid = build_two_host_grid()
        memory = NwsMemory(grid.sim)
        memory.store(Measurement("cpu", "b", None, 0.0, 1.0))
        memory.store(Measurement("cpu", "a", None, 0.0, 1.0))
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

    def test_latency_sensor(self):
        grid = build_two_host_grid(latency=0.010)
        memory = NwsMemory(grid.sim)
        LatencySensor(
            grid.sim, memory, grid, "src", "dst", period=5.0, noise=0.0
        )
        grid.run(until=20.0)
        _, value = memory.latest(series_key("latency", "src", "dst"))
        assert value == pytest.approx(0.020)

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

    def test_memory_sensor_reports_free_bytes(self):
        grid = build_two_host_grid()
        memory = NwsMemory(grid.sim)
        FreeMemorySensor(
            grid.sim, memory, grid.host("src"), free_fraction=0.5,
            period=5.0, noise=0.0,
        )
        grid.run(until=20.0)
        _, value = memory.latest(series_key("memory", "src"))
        host = grid.host("src")
        assert value == pytest.approx(host.memory_bytes * 0.5)

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
        with pytest.raises(ValueError):
            FreeMemorySensor(
                grid.sim, memory, grid.host("src"), free_fraction=1.5
            )

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
