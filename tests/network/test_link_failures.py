"""Tests for link failures and flapping."""

import pytest

from repro.network import FlowNetwork, Topology
from repro.sim import Simulator


def make_net(capacity=100.0):
    sim = Simulator(seed=17)
    topo = Topology()
    topo.add_node("a")
    topo.add_node("b")
    topo.add_duplex_link("a", "b", capacity)
    return sim, topo, FlowNetwork(sim, topo)


def test_down_link_has_zero_capacity():
    _, topo, _ = make_net()
    link = topo.link("a", "b")
    assert link.is_up
    link.set_down()
    assert not link.is_up
    assert link.available_capacity == 0.0
    link.set_up()
    assert link.available_capacity == 100.0


def test_flow_stalls_during_outage_and_resumes():
    sim, topo, net = make_net(capacity=100.0)
    link = topo.link("a", "b")
    flow = net.start_flow("a", "b", 1000.0)

    def outage():
        yield sim.timeout(5.0)       # 500 B moved
        link.set_down()
        net.rebalance()
        yield sim.timeout(20.0)      # stalled
        link.set_up()
        net.rebalance()

    sim.process(outage())
    sim.run(until=flow.done)
    # 5s before + 20s outage + 5s after.
    assert sim.now == pytest.approx(30.0)
    assert flow.transferred == pytest.approx(1000.0)


def test_transfer_through_flapping_link_completes():
    sim, topo, net = make_net(capacity=100.0)
    link = topo.link("a", "b")

    def flap():
        while True:
            yield sim.timeout(3.0)   # up: 300 B moved
            link.set_down()
            net.rebalance()
            yield sim.timeout(1.0)   # down: stalled
            link.set_up()
            net.rebalance()

    sim.process(flap())
    flow = net.start_flow("a", "b", 2000.0)
    sim.run(until=flow.done)
    assert flow.transferred == pytest.approx(2000.0)
    # Six 3 s + 1 s cycles move 1800 B; the last 200 B take 2 s more,
    # so six outages stretch the ideal 20 s to 26 s.
    assert sim.now == pytest.approx(26.0)
