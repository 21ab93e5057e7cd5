"""Tests for the dynamic flow network."""

import math

import pytest

from repro.network import FlowNetwork, Router, Topology
from repro.network.flow import FlowAborted
from repro.network.link import Link
from repro.sim import Simulator


def make_net(capacity=100.0, latency=0.0):
    sim = Simulator()
    topo = Topology()
    topo.add_node("a")
    topo.add_node("b")
    topo.add_node("c")
    topo.add_duplex_link("a", "b", capacity, latency=latency)
    topo.add_duplex_link("b", "c", capacity, latency=latency)
    return sim, topo, FlowNetwork(sim, topo)


def test_single_flow_duration_is_bytes_over_capacity():
    sim, _, net = make_net(capacity=100.0)
    flow = net.start_flow("a", "b", 1000.0)
    sim.run(until=flow.done)
    assert sim.now == pytest.approx(10.0)
    assert flow.completed_at == pytest.approx(10.0)
    assert flow.remaining == 0.0


def test_flow_cap_slows_transfer():
    sim, _, net = make_net(capacity=100.0)
    flow = net.start_flow("a", "b", 1000.0, cap=10.0)
    sim.run(until=flow.done)
    assert sim.now == pytest.approx(100.0)


def test_two_flows_share_fairly():
    sim, _, net = make_net(capacity=100.0)
    f1 = net.start_flow("a", "b", 1000.0)
    f2 = net.start_flow("a", "b", 1000.0)
    sim.run(until=f2.done)
    # Both at 50 B/s for the full duration.
    assert sim.now == pytest.approx(20.0)
    assert f1.completed_at == pytest.approx(20.0)


def test_late_arrival_speeds_up_after_first_finishes():
    sim, _, net = make_net(capacity=100.0)
    f1 = net.start_flow("a", "b", 500.0)

    result = {}

    def second():
        yield sim.timeout(5.0)  # f1 done at t=5 if alone
        f2 = net.start_flow("a", "b", 500.0)
        yield f2.done
        result["f2_done"] = sim.now

    sim.process(second())
    sim.run()
    # f1 alone until t=5 (500B done). f2 then runs alone at 100 B/s.
    assert f1.completed_at == pytest.approx(5.0)
    assert result["f2_done"] == pytest.approx(10.0)


def test_contention_mid_flight_slows_first_flow():
    sim, _, net = make_net(capacity=100.0)
    f1 = net.start_flow("a", "b", 1000.0)

    def second():
        yield sim.timeout(5.0)
        net.start_flow("a", "b", 10000.0)

    sim.process(second())
    sim.run(until=f1.done)
    # f1: 500B in first 5s at 100 B/s; remaining 500B at 50 B/s = 10s.
    assert sim.now == pytest.approx(15.0)


def test_opposite_directions_do_not_contend():
    sim, _, net = make_net(capacity=100.0)
    f1 = net.start_flow("a", "b", 1000.0)
    f2 = net.start_flow("b", "a", 1000.0)
    sim.run()
    assert f1.completed_at == pytest.approx(10.0)
    assert f2.completed_at == pytest.approx(10.0)


def test_multihop_flow_bottlenecked_by_slowest_link():
    sim = Simulator()
    topo = Topology()
    for n in ["a", "b", "c"]:
        topo.add_node(n)
    topo.add_link("a", "b", 100.0)
    topo.add_link("b", "c", 25.0)
    net = FlowNetwork(sim, topo)
    flow = net.start_flow("a", "c", 1000.0)
    sim.run(until=flow.done)
    assert sim.now == pytest.approx(40.0)


def test_zero_byte_flow_completes_immediately():
    sim, _, net = make_net()
    flow = net.start_flow("a", "b", 0.0)
    assert flow.completed_at == sim.now
    sim.run()
    assert flow.done.value is flow


def test_negative_size_rejected():
    _, _, net = make_net()
    with pytest.raises(ValueError):
        net.start_flow("a", "b", -1.0)


def test_abort_fails_done_event():
    sim, _, net = make_net(capacity=100.0)
    flow = net.start_flow("a", "b", 1000.0)
    caught = []

    def aborter():
        yield sim.timeout(2.0)
        net.abort_flow(flow, cause="test abort")

    def waiter():
        try:
            yield flow.done
        except FlowAborted as error:
            caught.append((error.cause, sim.now, flow.transferred))

    sim.process(aborter())
    sim.process(waiter())
    sim.run()
    assert caught == [("test abort", 2.0, pytest.approx(200.0))]


def test_abort_frees_bandwidth_for_others():
    sim, _, net = make_net(capacity=100.0)
    f1 = net.start_flow("a", "b", 1000.0)
    f2 = net.start_flow("a", "b", 1000.0)

    def aborter():
        yield sim.timeout(2.0)
        net.abort_flow(f1)

    def tolerate_abort():
        try:
            yield f1.done
        except FlowAborted:
            pass

    sim.process(aborter())
    sim.process(tolerate_abort())
    sim.run(until=f2.done)
    # f2: 100B in 2s at 50 B/s, then 900B at 100 B/s = 9s more.
    assert sim.now == pytest.approx(11.0)


def test_background_change_triggers_rebalance():
    sim, topo, net = make_net(capacity=100.0)
    flow = net.start_flow("a", "b", 1000.0)

    def loader():
        yield sim.timeout(5.0)
        topo.link("a", "b").background_utilisation = 0.5
        net.rebalance()

    sim.process(loader())
    sim.run(until=flow.done)
    # 500B at 100 B/s, then 500B at 50 B/s.
    assert sim.now == pytest.approx(15.0)


def test_extra_resource_links_constrain_rate():
    sim, _, net = make_net(capacity=100.0)
    disk = Link("disk", "a-read", capacity=20.0)
    flow = net.start_flow("a", "b", 1000.0, extra_links=[disk])
    sim.run(until=flow.done)
    assert sim.now == pytest.approx(50.0)
    assert disk.bytes_carried == pytest.approx(1000.0)


def test_extra_links_shared_between_flows():
    sim, _, net = make_net(capacity=1000.0)
    disk = Link("disk", "a-read", capacity=100.0)
    f1 = net.start_flow("a", "b", 500.0, extra_links=[disk])
    f2 = net.start_flow("a", "c", 500.0, extra_links=[disk])
    sim.run()
    # Disk shared at 50 B/s each.
    assert f1.completed_at == pytest.approx(10.0)
    assert f2.completed_at == pytest.approx(10.0)



def test_a_link_listed_twice_counts_once():
    """A transfer from a host to itself lists the host's disk as both
    its source and its sink: the flow occupies it once, in the solver,
    in ``allocated`` and in ``bytes_carried``."""
    sim, _, net = make_net(capacity=1000.0)
    disk = Link("disk", "a-rw", capacity=100.0)
    flow = net.start_flow("a", "b", 500.0, extra_links=[disk, disk])
    assert flow.links.count(disk) == 1
    assert flow.rate == 100.0
    assert disk.allocated == 100.0
    sim.run(until=flow.done)
    assert disk.bytes_carried == pytest.approx(500.0)


def test_one_key_names_one_link_object():
    """The live-link registry is keyed by link key; a second object
    reusing a live key would silently lose its capacity."""
    _, _, net = make_net(capacity=1000.0)
    net.start_flow("a", "b", 500.0, extra_links=[Link("disk", "a-read", 100.0)])
    impostor = Link("disk", "a-read", capacity=5.0)
    with pytest.raises(AssertionError, match="share key"):
        net.start_flow("a", "c", 500.0, extra_links=[impostor])


def test_allocation_tracks_the_live_link_set():
    sim, topo, net = make_net(capacity=100.0)
    disk = Link("disk", "a-read", capacity=1000.0)
    short = net.start_flow("a", "b", 100.0, extra_links=[disk])
    long = net.start_flow("a", "c", 1000.0)
    assert disk.allocated == pytest.approx(50.0)
    sim.run(until=short.done)
    # The finished flow's exclusive links leave the live set idle; the
    # survivor's links carry exactly its new rate.
    assert disk.allocated == 0.0
    assert topo.link("a", "b").allocated == pytest.approx(100.0)
    assert topo.link("b", "c").allocated == pytest.approx(100.0)
    assert long.rate == pytest.approx(100.0)

def test_idle_rebalance_touches_nothing():
    """With no live flow, a rebalance only moves the settle point."""
    sim, topo, net = make_net(capacity=100.0)
    flow = net.start_flow("a", "b", 100.0)
    sim.run(until=flow.done)
    sim.run(until=sim.now + 5.0)
    rates = [flow.rate for flow in net.completed]
    allocated = [link.allocated for link in topo.links()]
    queue = list(sim._queue)
    scheduled = sim.events_scheduled
    counters = net._solver.solves, net._solver.cache_hits
    topo.link("a", "b").background_utilisation = 0.5
    net.rebalance()
    assert net._last_settle == sim.now
    assert [flow.rate for flow in net.completed] == rates
    assert [link.allocated for link in topo.links()] == allocated
    assert list(sim._queue) == queue
    assert sim.events_scheduled == scheduled
    assert (net._solver.solves, net._solver.cache_hits) == counters


def test_rebalance_rewrites_only_the_touched_component():
    sim, topo, net = make_net(capacity=100.0)
    left = net.start_flow("a", "b", 1e6)
    right = net.start_flow("c", "b", 1e6, cap=30.0)
    assert (left.rate, right.rate) == (100.0, 30.0)
    # Planted marks survive only where nothing was re-solved.
    right.rate = -1.0
    topo.link("c", "b").allocated = -1.0
    topo.link("a", "b").background_utilisation = 0.5
    net.rebalance()
    assert left.rate == 50.0
    assert topo.link("a", "b").allocated == 50.0
    assert right.rate == -1.0
    assert topo.link("c", "b").allocated == -1.0


def test_probe_rate_sees_contention():
    sim, _, net = make_net(capacity=100.0)
    assert net.probe_rate("a", "b") == pytest.approx(100.0)
    net.start_flow("a", "b", 1e9)
    assert net.probe_rate("a", "b") == pytest.approx(50.0)


def test_probe_rate_respects_cap():
    _, _, net = make_net(capacity=100.0)
    assert net.probe_rate("a", "b", cap=10.0) == pytest.approx(10.0)


def test_probe_does_not_disturb_flows():
    sim, _, net = make_net(capacity=100.0)
    flow = net.start_flow("a", "b", 1000.0)
    net.probe_rate("a", "b")
    sim.run(until=flow.done)
    assert sim.now == pytest.approx(10.0)


def test_link_allocated_tracks_rates():
    sim, topo, net = make_net(capacity=100.0)
    net.start_flow("a", "b", 1000.0)
    net.start_flow("a", "b", 1000.0)
    assert topo.link("a", "b").allocated == pytest.approx(100.0)


def test_completed_log_grows():
    sim, _, net = make_net()
    net.start_flow("a", "b", 10.0)
    net.start_flow("a", "b", 10.0)
    sim.run()
    assert len(net.completed) == 2


def test_flow_eta_infinite_when_stalled():
    sim, topo, net = make_net(capacity=100.0)
    topo.link("a", "b").background_utilisation = 0.95
    flow = net.start_flow("a", "b", 1000.0, cap=0.0)
    assert math.isinf(flow.eta())
