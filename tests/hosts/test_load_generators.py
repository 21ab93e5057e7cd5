"""Tests for CPU / disk background load generators."""

import pytest

from repro.hosts import CPU, CPULoadGenerator, Disk, DiskLoadGenerator
from repro.sim import Simulator


def recording_notify(sim, read_level):
    """A ``notify`` that samples ``(time, level)`` at every jump.

    Each jump applies its level and then calls ``notify`` once, so the
    samples are the generator's jumps in order.
    """
    samples = []

    def notify():
        samples.append((sim.now, read_level()))

    return samples, notify


def test_cpu_load_jumps_between_levels():
    sim = Simulator(seed=1)
    cpu = CPU(sim, "h", cores=4)
    history, notify = recording_notify(
        sim, lambda: cpu.background_busy_cores
    )
    gen = CPULoadGenerator(
        sim, cpu, levels=[0.0, 1.0, 3.0], mean_holding_time=5.0,
        notify=notify,
    )
    sim.run(until=200.0)
    assert len(history) == gen.jumps
    seen = {level for _, level in history}
    assert len(history) > 10
    assert len(seen) > 1
    for _, level in history:
        assert 0.0 <= level <= 4.0


def test_disk_load_levels_validated():
    sim = Simulator()
    disk = Disk(sim, "h", bandwidth=1e6, capacity_bytes=1e9)
    with pytest.raises(ValueError):
        DiskLoadGenerator(sim, disk, levels=[1.2], mean_holding_time=1.0)
    with pytest.raises(ValueError):
        DiskLoadGenerator(sim, disk, levels=[], mean_holding_time=1.0)


def test_cpu_negative_level_rejected():
    sim = Simulator()
    cpu = CPU(sim, "h")
    with pytest.raises(ValueError):
        CPULoadGenerator(sim, cpu, levels=[-1.0], mean_holding_time=1.0)


def test_notify_called_on_each_jump():
    sim = Simulator(seed=2)
    cpu = CPU(sim, "h", cores=2)
    calls = []
    gen = CPULoadGenerator(
        sim, cpu, levels=[0.5, 1.5], mean_holding_time=2.0,
        notify=lambda: calls.append(sim.now),
    )
    sim.run(until=20.0)
    assert len(calls) == gen.jumps > 0


def test_jitter_stays_clamped():
    sim = Simulator(seed=3)
    disk = Disk(sim, "h", bandwidth=1e6, capacity_bytes=1e9)
    history, notify = recording_notify(
        sim, lambda: disk.background_utilisation
    )
    gen = DiskLoadGenerator(
        sim, disk, levels=[0.9], mean_holding_time=1.0, jitter=0.3,
        notify=notify,
    )
    sim.run(until=50.0)
    assert len(history) == gen.jumps > 0
    for _, level in history:
        assert 0.0 <= level <= 0.95


def test_stop_freezes_level():
    sim = Simulator(seed=4)
    cpu = CPU(sim, "h", cores=2)
    gen = CPULoadGenerator(
        sim, cpu, levels=[0.1, 1.9], mean_holding_time=1.0
    )
    sim.run(until=5.0)
    gen.stop()
    sim.run(until=6.0)
    jumps = gen.jumps
    level = cpu.background_busy_cores
    sim.run(until=50.0)
    assert gen.jumps == jumps
    assert cpu.background_busy_cores == level


def test_generator_determinism():
    histories = []
    for _ in range(2):
        sim = Simulator(seed=9)
        cpu = CPU(sim, "h", cores=2)
        history, notify = recording_notify(
            sim, lambda cpu=cpu: cpu.background_busy_cores
        )
        gen = CPULoadGenerator(
            sim, cpu, levels=[0.0, 2.0], mean_holding_time=3.0,
            notify=notify,
        )
        sim.run(until=100.0)
        assert len(history) == gen.jumps > 0
        histories.append(history)
    assert histories[0] == histories[1]


def test_load_actually_slows_transfer():
    """End-to-end: disk background load stretches a flow through a host."""
    from repro.network import FlowNetwork, Topology

    sim = Simulator()
    topo = Topology()
    topo.add_node("src")
    topo.add_node("dst")
    topo.add_duplex_link("src", "dst", 1e9)
    net = FlowNetwork(sim, topo)
    disk = Disk(sim, "src", bandwidth=100.0, capacity_bytes=1e9)
    flow = net.start_flow(
        "src", "dst", 1000.0, extra_links=[disk.channel]
    )

    def loader():
        yield sim.timeout(5.0)
        disk.set_background_utilisation(0.5)
        net.rebalance()

    sim.process(loader())
    sim.run(until=flow.done)
    # 500B at 100 B/s, then 500B at 50 B/s.
    assert sim.now == pytest.approx(15.0)
