"""Flow-model invariant checks: clean runs pass, planted bugs fail."""

import pytest

from repro.analysis.sanitizers import run_traced, trace_digest
from repro.experiments.runner import EXPERIMENTS
from repro.hosts import CPU
from repro.network.flow import FlowAborted, FlowNetwork
from repro.network.topology import Topology
from repro.sim import Simulator
from tests.network.flow_invariants import (
    FlowInvariantGuard,
    check_flow_invariants,
    install_flow_invariants,
)


def _network(capacity=100.0):
    sim = Simulator()
    topology = Topology()
    for name in ("a", "b", "c"):
        topology.add_node(name)
    topology.add_duplex_link("a", "b", capacity, latency=0.0)
    topology.add_duplex_link("b", "c", capacity, latency=0.0)
    return sim, FlowNetwork(sim, topology)


def _kinds(violations):
    return {violation.kind for violation in violations}


@pytest.mark.no_sanitize
def test_clean_churn_has_no_violations():
    sim, network = _network()
    with FlowInvariantGuard() as guard:
        network.start_flow("a", "c", 500.0)
        network.start_flow("a", "b", 300.0, cap=20.0)
        doomed = network.start_flow("b", "c", 1e6)

        def tolerate_abort():
            try:
                yield doomed.done
            except FlowAborted:
                pass

        sim.process(tolerate_abort())
        sim.run(until=2.0)
        network.abort_flow(doomed)
        network.start_flow("c", "a", 200.0)
        sim.run()
    assert guard.checks > 5
    assert guard.violations() == []
    assert len(network.completed) == 3


@pytest.mark.no_sanitize
def test_allocation_drift_is_detected():
    sim, network = _network()
    network.start_flow("a", "c", 500.0)
    flow = network.start_flow("a", "b", 500.0)
    assert check_flow_invariants(network) == []
    flow.links[0].allocated += 1.0
    assert _kinds(check_flow_invariants(network)) == {"allocation"}


@pytest.mark.no_sanitize
def test_over_capacity_is_detected():
    sim, network = _network()
    flow = network.start_flow("a", "b", 500.0)
    flow.rate *= 1.5
    for link in flow.links:
        link.allocated = flow.rate
    assert _kinds(check_flow_invariants(network)) == {"over-capacity"}


@pytest.mark.no_sanitize
def test_negative_remaining_is_detected():
    sim, network = _network()
    flow = network.start_flow("a", "b", 500.0)
    flow.remaining = -1.0
    assert _kinds(check_flow_invariants(network)) == {"negative-remaining"}


@pytest.mark.no_sanitize
def test_early_completion_is_detected():
    """A flow the network completes before its bytes could have moved."""
    sim, network = _network()
    with FlowInvariantGuard() as guard:
        flow = network.start_flow("a", "b", 1000.0)
        sim.run(until=1.0)
        flow.remaining = 0.0
        network.rebalance()
    assert flow.completed_at == 1.0
    kinds = [violation.kind for violation in guard.violations()]
    assert kinds == ["short-delivery"]


@pytest.mark.no_sanitize
def test_drift_survives_a_rebalance_that_changes_nothing():
    """Nothing changed, so the rebalance rewrites no allocation: the
    planted drift is still there when the hook checks."""
    sim, network = _network()
    with FlowInvariantGuard() as guard:
        flow = network.start_flow("a", "b", 1000.0)
        flow.links[0].allocated += 1.0
        network.rebalance()
    assert _kinds(guard.violations()) == {"allocation"}


@pytest.mark.no_sanitize
def test_uninstall_restores_the_network():
    original = FlowNetwork._reallocate
    guard = install_flow_invariants()
    assert FlowNetwork._reallocate is not original
    with pytest.raises(RuntimeError):
        guard.install()
    guard.uninstall()
    guard.uninstall()
    assert FlowNetwork._reallocate is original


@pytest.mark.no_sanitize
def test_guard_is_digest_neutral():
    runner = EXPERIMENTS["table1"]
    _, plain = run_traced(lambda: runner(True, 0))
    with FlowInvariantGuard() as guard:
        _, checked = run_traced(lambda: runner(True, 0))
    assert guard.checks > 0
    assert guard.violations() == []
    assert trace_digest(checked) == trace_digest(plain)


@pytest.mark.no_sanitize
def test_unreported_capacity_change_is_detected():
    """A CPU load written behind the channel's back never reaches the
    solver: the next reallocation leaves the stored capacity stale."""
    sim, network = _network(capacity=1e6)
    cpu = CPU(sim, "a", cores=2, transfer_cost_per_byte=1e-3)
    cpu.set_background_busy(1.5)
    with FlowInvariantGuard() as guard:
        network.start_flow("a", "c", 1e6, extra_links=[cpu.channel])
        cpu._background_busy = 0.0
        network.rebalance()
    assert _kinds(guard.violations()) == {"stale-capacity"}


@pytest.mark.no_sanitize
def test_reported_capacity_change_is_not_stale():
    sim, network = _network(capacity=1e6)
    cpu = CPU(sim, "a", cores=2, transfer_cost_per_byte=1e-3)
    cpu.set_background_busy(1.5)
    with FlowInvariantGuard() as guard:
        flow = network.start_flow("a", "c", 1e6, extra_links=[cpu.channel])
        assert flow.rate == 500.0
        cpu.set_background_busy(0.0)
        network.rebalance()
    assert flow.rate == 2000.0
    assert guard.violations() == []
