"""Tests for background traffic processes."""

import pytest

from repro.network import CrossTrafficProcess, FlowNetwork, Topology
from repro.sim import Simulator


def make_net(capacity=1000.0):
    sim = Simulator(seed=42)
    topo = Topology()
    for name in ["a", "b", "c"]:
        topo.add_node(name)
    topo.add_duplex_link("a", "b", capacity)
    topo.add_duplex_link("b", "c", capacity)
    return sim, topo, FlowNetwork(sim, topo)


def record_levels(net, link):
    """The link's background utilisation at every jump.

    Each jump sets the level and then rebalances the network once, so
    sampling the link inside ``rebalance`` sees every level set.
    """
    levels = []
    rebalance = net.rebalance

    def recording_rebalance():
        levels.append(link.background_utilisation)
        rebalance()

    net.rebalance = recording_rebalance
    return levels


def test_cross_traffic_changes_utilisation_over_time():
    sim, topo, net = make_net()
    link = topo.link("a", "b")
    seen = record_levels(net, link)
    proc = CrossTrafficProcess(
        sim, net, link, levels=[0.1, 0.5, 0.8], mean_holding_time=10.0
    )
    sim.run(until=200.0)
    assert len(seen) == proc.jumps
    levels = {round(u, 1) for u in seen}
    assert proc.jumps > 5
    assert levels <= {0.1, 0.5, 0.8}
    assert len(levels) > 1  # actually moved between levels


def test_cross_traffic_jitter_stays_in_bounds():
    sim, topo, net = make_net()
    link = topo.link("a", "b")
    seen = record_levels(net, link)
    proc = CrossTrafficProcess(
        sim, net, link,
        levels=[0.5], mean_holding_time=5.0, jitter=0.2,
    )
    sim.run(until=100.0)
    assert len(seen) == proc.jumps > 0
    for level in seen:
        assert 0.0 <= level <= 0.95


def test_cross_traffic_slows_foreground_flow():
    sim, topo, net = make_net(capacity=100.0)
    CrossTrafficProcess(
        sim, net, topo.link("a", "b"),
        levels=[0.5], mean_holding_time=1e9,
    )
    flow = net.start_flow("a", "b", 1000.0)
    sim.run(until=flow.done)
    assert sim.now == pytest.approx(20.0)


def test_cross_traffic_stop_halts_jumps():
    sim, topo, net = make_net()
    proc = CrossTrafficProcess(
        sim, net, topo.link("a", "b"),
        levels=[0.1, 0.2], mean_holding_time=1.0,
    )
    sim.run(until=10.0)
    proc.stop()
    sim.run(until=30.0)
    count = proc.jumps
    sim.run(until=100.0)
    assert proc.jumps == count


def test_cross_traffic_validation():
    sim, topo, net = make_net()
    link = topo.link("a", "b")
    with pytest.raises(ValueError):
        CrossTrafficProcess(sim, net, link, levels=[], mean_holding_time=1.0)
    with pytest.raises(ValueError):
        CrossTrafficProcess(sim, net, link, levels=[1.5], mean_holding_time=1.0)
    with pytest.raises(ValueError):
        CrossTrafficProcess(sim, net, link, levels=[0.1], mean_holding_time=0)
