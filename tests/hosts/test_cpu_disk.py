"""Tests for CPU and disk models."""

import pytest

from repro.hosts import CPU, Disk
from repro.sim import Simulator


class TestCPU:
    def test_idle_when_unloaded(self):
        cpu = CPU(Simulator(), "h", cores=2)
        assert cpu.idle_fraction == 1.0
        assert cpu.busy_fraction == 0.0

    def test_background_load_reduces_idle(self):
        cpu = CPU(Simulator(), "h", cores=2)
        cpu.set_background_busy(1.0)
        assert cpu.idle_fraction == pytest.approx(0.5)

    def test_background_load_clamped_to_cores(self):
        cpu = CPU(Simulator(), "h", cores=2)
        cpu.set_background_busy(5.0)
        assert cpu.background_busy_cores == 2.0
        assert cpu.idle_fraction == pytest.approx(0.0)

    def test_transfer_allocation_counts_as_busy(self):
        cpu = CPU(Simulator(), "h", cores=1, transfer_cost_per_byte=1e-8)
        cpu.channel.allocated = 50e6  # 50 MB/s -> 0.5 cores
        assert cpu.busy_fraction == pytest.approx(0.5)

    def test_transfer_capacity_shrinks_with_load(self):
        cpu = CPU(Simulator(), "h", cores=2, transfer_cost_per_byte=1e-8)
        free = cpu.channel.available_capacity
        cpu.set_background_busy(1.0)
        assert cpu.channel.available_capacity == pytest.approx(free / 2)

    def test_min_transfer_share_on_saturated_cpu(self):
        cpu = CPU(
            Simulator(), "h", cores=1,
            transfer_cost_per_byte=1e-8, min_transfer_cores=0.1,
        )
        cpu.set_background_busy(1.0)
        assert cpu.channel.available_capacity == pytest.approx(0.1 / 1e-8)

    def test_slower_clock_costs_more_per_byte(self):
        slow = CPU(Simulator(), "s", frequency_ghz=0.9)
        fast = CPU(Simulator(), "f", frequency_ghz=2.8)
        assert slow.transfer_cost_per_byte > fast.transfer_cost_per_byte

    def test_validation(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            CPU(sim, "h", cores=0)
        with pytest.raises(ValueError):
            CPU(sim, "h", frequency_ghz=0)
        with pytest.raises(ValueError):
            CPU(sim, "h", transfer_cost_per_byte=-1)
        with pytest.raises(ValueError):
            CPU(sim, "h", min_transfer_cores=0)
        cpu = CPU(sim, "h")
        with pytest.raises(ValueError):
            cpu.set_background_busy(-1)


class TestDisk:
    def test_idle_when_unloaded(self):
        disk = Disk(Simulator(), "h", bandwidth=50e6, capacity_bytes=60e9)
        assert disk.io_idle_fraction == 1.0

    def test_background_reduces_idle_and_capacity(self):
        disk = Disk(Simulator(), "h", bandwidth=50e6, capacity_bytes=60e9)
        disk.set_background_utilisation(0.6)
        assert disk.io_idle_fraction == pytest.approx(0.4)
        assert disk.channel.available_capacity == pytest.approx(0.4 * 50e6)

    def test_transfer_allocation_counts_as_utilisation(self):
        disk = Disk(Simulator(), "h", bandwidth=50e6, capacity_bytes=60e9)
        disk.channel.allocated = 25e6
        assert disk.utilisation == pytest.approx(0.5)
        assert disk.io_idle_fraction == pytest.approx(0.5)

    def test_min_transfer_fraction_on_saturated_disk(self):
        disk = Disk(
            Simulator(), "h", bandwidth=100.0, capacity_bytes=1e9,
            min_transfer_fraction=0.1,
        )
        disk.set_background_utilisation(0.95 - 1e-12)
        assert disk.channel.available_capacity == pytest.approx(10.0)

    def test_validation(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            Disk(sim, "h", bandwidth=0, capacity_bytes=1)
        with pytest.raises(ValueError):
            Disk(sim, "h", bandwidth=1, capacity_bytes=0)
        disk = Disk(sim, "h", bandwidth=1, capacity_bytes=1)
        with pytest.raises(ValueError):
            disk.set_background_utilisation(1.0)
        with pytest.raises(ValueError):
            disk.set_background_utilisation(-0.1)
