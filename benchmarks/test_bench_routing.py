"""Microbenchmark: route-cache misses on a 1000-site grid.

Every transfer and every NWS probe asks :class:`repro.network.Router`
for a path; on ``scaled(1000)`` the cache misses are most of the
routing time.  The miss sequence is seeded and shaped like a selection
run's: groups of three sources take turns, each asking for three
destinations.  ``test_bench_route_misses`` replays it through a fresh
:class:`~repro.network.Router`, which walks pairs inside one stub tree
and resumes each source's paused search for the rest, and through the per-pair reference kept under ``tests/network/``,
which searches afresh on every miss.  The routes must be equal.  Run
with ``PYTHONPATH=src python -m pytest benchmarks/test_bench_routing.py
--benchmark-only``.
"""

import random

import pytest

from repro.network import Router
from repro.testbed import build_testbed
from repro.testbed.topology import scaled
from tests.network.route_reference import ReferenceRouter

ROUTERS = {"router": Router, "reference": ReferenceRouter}
SOURCES = 60
GROUP = 3
PER_SOURCE = 3


def _miss_sequence(topology):
    rng = random.Random(0)
    hosts = [node.name for node in topology.hosts()]
    picked = rng.sample(hosts, SOURCES)
    queries = []
    for start in range(0, SOURCES, GROUP):
        members = picked[start:start + GROUP]
        wanted = {src: rng.sample(hosts, PER_SOURCE) for src in members}
        for turn in range(PER_SOURCE):
            queries.extend([(src, wanted[src][turn]) for src in members])
    return queries


@pytest.fixture(scope="module")
def grid():
    topology = build_testbed(
        topology=scaled(1000), monitoring=False
    ).grid.topology
    return topology, _miss_sequence(topology)


def _replay(router_class, topology, queries):
    router = router_class(topology)
    return [router.path(src, dst).links for src, dst in queries]


@pytest.mark.parametrize("router", sorted(ROUTERS))
def test_bench_route_misses(benchmark, grid, router):
    topology, queries = grid
    benchmark.group = "route_misses[scaled-1000]"
    routes = benchmark(_replay, ROUTERS[router], topology, queries)
    assert routes == _replay(ReferenceRouter, topology, queries)
