"""Differential battery: reported capacity changes against polling.

:class:`repro.network.flow.FlowNetwork` hands its solver only the
capacities of links that reported a change or just became live.  The
reference, :class:`tests.network.polling_reference.PollingFlowNetwork`,
re-reads every live link on every reallocation.  The battery drives the
same churn through two identical worlds, one per network, and compares
every flow's rate, ``remaining`` and completion time, every link's and
channel's ``allocated``, the clock and ``sim.events_processed`` with
``==`` after every step.  Each world builds its own topology, CPUs and
disks; a link live on two networks reports to both (pinned below).

The churn starts, aborts and completes flows, and moves capacities
through every mutator: a link's background utilisation, ``set_down``
and ``set_up``, a CPU's background load, a disk's background
utilisation and its bandwidth, each followed by a rebalance or left to
the next flow event.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hosts import CPU, Disk
from repro.network import FlowNetwork, Topology
from repro.network.solver import IncrementalMaxMinSolver
from repro.sim import Simulator
from tests.network.polling_reference import PollingFlowNetwork

HOSTS = ("h0", "h1", "h2", "h3")
#: The hub's duplex spokes plus a direct h0-h1 link, both directions.
LINKS = [(host, "hub") for host in HOSTS] + [("hub", host) for host in HOSTS]
LINKS += [("h0", "h1"), ("h1", "h0")]


class World:
    """A star of hosts with a CPU and a disk each, on one network."""

    def __init__(self, network_cls):
        self.sim = Simulator(seed=0)
        topology = Topology()
        topology.add_node("hub")
        for host in HOSTS:
            topology.add_node(host)
            topology.add_duplex_link(host, "hub", 1000.0, latency=0.01)
        topology.add_duplex_link("h0", "h1", 700.0, latency=0.001)
        self.topology = topology
        self.net = network_cls(self.sim, topology)
        self.cpus = [
            CPU(self.sim, host, cores=2, transfer_cost_per_byte=1e-3)
            for host in HOSTS
        ]
        self.disks = [
            Disk(self.sim, host, bandwidth=1500.0, capacity_bytes=1e12)
            for host in HOSTS
        ]
        self.flows = []

    def links(self):
        return [self.topology.link(src, dst) for src, dst in LINKS]

    def start(self, src, dst, nbytes, cap):
        extra = [self.disks[src].channel, self.cpus[src].channel,
                 self.disks[dst].channel, self.cpus[dst].channel]
        flow = self.net.start_flow(
            HOSTS[src], HOSTS[dst], nbytes, cap=cap, extra_links=extra,
        )
        self.flows.append(flow)

    def abort(self, index):
        live = [flow for flow in self.flows if flow.is_active]
        if live:
            flow = live[index % len(live)]
            self.net.abort_flow(flow)
            flow.done.defused = True

    def apply(self, op):
        kind, *args = op
        if kind == "start":
            self.start(*args)
        elif kind == "abort":
            self.abort(*args)
        elif kind == "advance":
            self.sim.run(until=self.sim.now + args[0])
        else:
            target, value, rebalance = args
            if kind == "background":
                self.links()[target].background_utilisation = value
            elif kind == "down":
                self.links()[target].set_down()
            elif kind == "up":
                self.links()[target].set_up()
            elif kind == "cpu":
                self.cpus[target].set_background_busy(value)
            elif kind == "disk":
                self.disks[target].set_background_utilisation(value)
            elif kind == "bandwidth":
                self.disks[target].bandwidth = value
            if rebalance:
                self.net.rebalance()

    def state(self):
        """Everything the two networks must agree on, as exact values."""
        channels = [c.channel for c in self.cpus] + [
            d.channel for d in self.disks
        ]
        return (
            self.sim.now,
            self.sim.events_processed,
            [(flow.rate, flow.remaining, flow.completed_at, flow.aborted)
             for flow in self.flows],
            [link.allocated for link in self.links()],
            [channel.allocated for channel in channels],
            [link.bytes_carried for link in self.links()],
        )


def _mutation(kind, targets, values):
    return st.tuples(
        st.just(kind), st.integers(0, targets - 1), values, st.booleans(),
    )


_host = st.integers(0, len(HOSTS) - 1)
_OPS = st.one_of(
    st.tuples(
        st.just("start"), _host, _host,
        st.sampled_from([0.0, 50.0, 800.0, 5000.0]),
        st.sampled_from([math.inf, 40.0, 300.0]),
    ),
    st.tuples(st.just("abort"), st.integers(0, 7)),
    st.tuples(st.just("advance"), st.sampled_from([0.0, 0.3, 1.0, 4.0])),
    _mutation("background", len(LINKS),
              st.sampled_from([0.0, 0.25, 0.5, 0.9])),
    _mutation("down", len(LINKS), st.none()),
    _mutation("up", len(LINKS), st.none()),
    _mutation("cpu", len(HOSTS), st.sampled_from([0.0, 0.5, 1.9, 2.0])),
    _mutation("disk", len(HOSTS), st.sampled_from([0.0, 0.3, 0.95])),
    _mutation("bandwidth", len(HOSTS),
              st.sampled_from([200.0, 1500.0, 4000.0])),
)


def _agree(ops):
    reporting, polling = World(FlowNetwork), World(PollingFlowNetwork)
    for step, op in enumerate(ops):
        reporting.apply(op)
        polling.apply(op)
        assert reporting.state() == polling.state(), (step, op)
    # Drain: restore every link so all flows can finish, then run out.
    for world in (reporting, polling):
        for link in world.links():
            link.set_up()
        world.net.rebalance()
        world.sim.run(until=world.sim.now + 1e5)
    assert reporting.state() == polling.state()
    return reporting


@settings(max_examples=150, deadline=None)
@given(ops=st.lists(_OPS, max_size=40))
def test_reports_match_polling_under_churn(ops):
    _agree(ops)


def test_churn_reaches_every_path():
    """One scripted run that starts, aborts and completes flows and
    moves every kind of capacity, with and without a rebalance."""
    world = _agree([
        ("start", 0, 1, 5000.0, math.inf),
        ("start", 2, 1, 5000.0, 300.0),
        ("cpu", 1, 1.9, False),
        ("advance", 1.0),
        ("start", 3, 0, 800.0, math.inf),
        ("disk", 0, 0.95, True),
        ("bandwidth", 2, 200.0, False),
        ("background", 8, 0.5, True),
        ("down", 0, None, True),
        ("advance", 1.0),
        ("abort", 1),
        ("up", 0, None, False),
        ("advance", 4.0),
        ("start", 1, 2, 50.0, 40.0),
        ("advance", 4.0),
    ])
    flows = world.flows
    assert any(flow.aborted for flow in flows)
    assert sum(flow.completed_at is not None for flow in flows) >= 3


# -- pinned cases -------------------------------------------------------------

def test_change_while_not_live_is_read_when_the_link_joins():
    """A link that moves while no flow crosses it has no network to
    report to; it is read when a flow makes it live."""
    world = World(FlowNetwork)
    world.start(0, 2, 5000.0, math.inf)
    idle = world.topology.link("h0", "h1")
    assert idle.networks == ()
    idle.background_utilisation = 0.9
    flow = world.net.start_flow("h0", "h1", 500.0)
    assert flow.path.links == (idle,)
    assert flow.rate == idle.available_capacity
    _agree([
        ("start", 0, 2, 5000.0, math.inf),
        ("background", 8, 0.9, False),
        ("bandwidth", 1, 100.0, False),
        ("start", 0, 1, 500.0, math.inf),
        ("advance", 2.0),
    ])


def test_change_then_leave_then_rejoin():
    """A link that moves while live without a rebalance, loses its last
    flow and is live again: the rejoin reads the new capacity."""
    _agree([
        ("start", 0, 1, 5000.0, math.inf),
        ("background", 8, 0.5, False),
        ("cpu", 1, 1.9, False),
        ("abort", 0),
        ("start", 0, 1, 5000.0, math.inf),
        ("advance", 1.0),
    ])
    world = World(FlowNetwork)
    world.start(0, 1, 5000.0, math.inf)
    link = world.topology.link("h0", "h1")
    assert link.networks == (world.net,)
    link.background_utilisation = 0.5
    world.abort(0)
    assert link.networks == ()
    assert link not in world.net._changed
    world.start(0, 1, 5000.0, math.inf)
    assert world.net._solver._links[link].capacity == 350.0


def test_solver_rejoin_before_the_next_solve_needs_a_capacity():
    """At the solver, a link that leaves and rejoins between two solves
    is newly live again: its capacity must be in the next map."""
    solver = IncrementalMaxMinSolver()
    solver.add_flow("f", ["x", "y"])
    assert solver.rates({"x": 10.0, "y": 20.0}) == {"f": 10.0}
    solver.remove_flow("f")
    solver.add_flow("g", ["x", "y"])
    with pytest.raises(KeyError):
        solver.rates({"y": 20.0})
    # The missing capacity can still be given.
    assert solver.rates({"x": 5.0, "y": 20.0}) == {"g": 5.0}


def test_newly_live_link_left_out_of_the_map_raises():
    solver = IncrementalMaxMinSolver()
    solver.add_flow("f", ["x"])
    solver.rates({"x": 10.0})
    solver.add_flow("g", ["x", "new"])
    with pytest.raises(KeyError, match="new"):
        solver.rates({})


def test_unchanged_links_may_be_left_out():
    """A partial map keeps the stored capacities; a full one, and keys
    of links no flow uses, still work."""
    solver = IncrementalMaxMinSolver()
    solver.add_flow("f", ["x", "y"])
    solver.add_flow("g", ["y"])
    assert solver.rates({"x": 10.0, "y": 30.0}) == {"f": 10.0, "g": 20.0}
    assert solver.rates({}) == {}
    assert solver.rates({"x": 10.0, "y": 30.0, "idle": 1.0}) == {}
    assert solver.rates({"x": 4.0}) == {"f": 4.0, "g": 26.0}


def test_a_link_live_on_two_networks_reports_to_both():
    sim = Simulator()
    topology = Topology()
    for name in ("a", "b"):
        topology.add_node(name)
    topology.add_duplex_link("a", "b", 100.0)
    first, second = FlowNetwork(sim, topology), FlowNetwork(sim, topology)
    one = first.start_flow("a", "b", 1e6)
    two = second.start_flow("a", "b", 1e6)
    link = topology.link("a", "b")
    assert link.networks == (first, second)
    link.background_utilisation = 0.5
    first.rebalance()
    second.rebalance()
    assert one.rate == two.rate == 50.0
    first.abort_flow(one)
    one.done.defused = True
    assert link.networks == (second,)
