"""Route invariant checks: clean routing passes, planted bugs fail."""

import pytest

from repro.network import NoRouteError, Router, Topology
from repro.network import routing
from repro.testbed import build_testbed
from repro.testbed.topology import preset
from tests.network.route_invariants import RouteInvariantGuard


def _ring_with_stubs():
    """Ring ``x``-``y``-``z``; chain ``x``-``s1``-``s2``, stub
    ``y``-``t1`` and a one-way stub ``u -> s2``."""
    topology = Topology()
    for name in ("x", "y", "z", "s1", "s2", "t1", "u"):
        topology.add_node(name)
    for a, b in (("x", "y"), ("y", "z"), ("z", "x"), ("x", "s1"),
                 ("s1", "s2"), ("y", "t1")):
        topology.add_duplex_link(a, b, 1.0, latency=0.001)
    topology.add_link("u", "s2", 1.0, latency=0.001)
    return topology


def _resolve_all(router):
    names = [node.name for node in router.topology.nodes()]
    for src in names:
        for dst in names:
            try:
                router.path(src, dst)
            except NoRouteError:
                pass


@pytest.mark.no_sanitize
def test_clean_routes_have_no_violations():
    topology = build_testbed(
        topology=preset("fat_tree_campus"), monitoring=False
    ).grid.topology
    plain = Router(topology)
    _resolve_all(plain)
    with RouteInvariantGuard() as guard:
        checked = Router(topology)
        _resolve_all(checked)
        _resolve_all(checked)
        _resolve_all(Router(_ring_with_stubs()))
    assert guard.checks == len(topology.nodes()) ** 2 + 7 * 7
    assert guard.violations() == []
    assert (checked.searches, checked.settled) == (
        plain.searches, plain.settled,
    )


@pytest.mark.no_sanitize
def test_wrong_tree_route_is_detected(monkeypatch):
    walk = routing._tree_links

    def reversed_walk(forest, src, dst):
        links = walk(forest, src, dst)
        return links[::-1] if links else links

    monkeypatch.setattr(routing, "_tree_links", reversed_walk)
    with RouteInvariantGuard() as guard:
        Router(_ring_with_stubs()).path("s2", "x")
    (violation,) = guard.violations()
    assert (violation.src, violation.dst) == ("s2", "x")
    assert "router ('s1', 'x') ('s2', 's1')" in str(violation)


@pytest.mark.no_sanitize
def test_router_error_is_recorded_and_raised(monkeypatch):
    """A walk that returns a link the topology lacks crashes the route's
    construction; the guard records it against the reference's answer."""
    monkeypatch.setattr(routing, "_tree_links", lambda *pair: [None])
    with RouteInvariantGuard() as guard:
        with pytest.raises(AttributeError):
            Router(_ring_with_stubs()).path("s2", "u")
    (violation,) = guard.violations()
    assert "router raised AttributeError, reference raised NoRouteError" in (
        str(violation)
    )
