"""Microbenchmarks: the max-min fair-share solver on one component.

Every transfer rate and every NWS bandwidth probe comes out of
:class:`repro.network.solver.IncrementalMaxMinSolver`, which keeps its
link entries, link classes and components between calls and water-fills
only the components a change touched.  Two seeded synthetic components:

* ``frontdoor`` — shaped like the median component of the front-door
  brownout benchmark: 14 four-stream transfers (56 capped flows) over
  112 links, each path 8 links of its own plus one of the previous
  path's, which chains them into one component.  The streams of one
  transfer share all their links, so the 112 links fall into 27
  classes;
* ``paper3`` — the paper's testbed: two capped flows sharing a link.

``test_bench_fill_component`` times one re-solve of the whole component
from the solver's persistent state (``invalidate`` + ``rates``) against
the reference loop kept under ``tests/network/``.
``test_bench_churn`` times what the flow network does on every flow
change of the frontdoor component — one ``remove_flow``, one
``add_flow`` and one ``rates()`` — against a fresh solver per change
(:func:`~tests.network.fairness.max_min_allocation` over the live
flows, which builds every link entry and the component anew and fills
it).  Both pairs must agree bit-for-bit.  Run with ``PYTHONPATH=src python -m
pytest benchmarks/test_bench_fairshare.py --benchmark-only``.
"""

import random
import struct
from collections import deque

import pytest

from tests.network.fairness import FlowDemand, max_min_allocation
from repro.network.solver import IncrementalMaxMinSolver
from tests.network.fill_reference import reference_fill_component


def _frontdoor_component(seed=0, transfers=14, streams=4, own_links=8):
    rng = random.Random(seed)
    keys = [("link", index) for index in range(transfers * own_links)]
    capacities = {key: rng.uniform(1e7, 1e9) for key in keys}
    demands = []
    path = []
    for transfer in range(transfers):
        own = keys[transfer * own_links:(transfer + 1) * own_links]
        # One link of the previous path chains the transfers into one
        # component.
        path = own + [rng.choice(path)] if path else own
        # Parallel streams: same path, same per-stream TCP cap.
        cap = rng.uniform(1e6, 4e7)
        for stream in range(streams):
            demands.append(FlowDemand((transfer, stream), path, cap))
    return demands, capacities


def _paper3_component():
    capacities = {"wan": 1.25e7, "disk": 5e7, "cpu": 2e8}
    demands = [
        FlowDemand(0, ["wan", "disk", "cpu"], 8e6),
        FlowDemand(1, ["wan", "disk"], 1e7),
    ]
    return demands, capacities


COMPONENTS = {
    "frontdoor": _frontdoor_component,
    "paper3": _paper3_component,
}


def _bits(allocation):
    return [(fid, struct.pack("<d", rate)) for fid, rate in allocation.items()]


def _solver(demands):
    solver = IncrementalMaxMinSolver()
    for demand in demands:
        solver.add_flow(demand.flow_id, demand.links, demand.cap)
    return solver


def _resolve(solver, capacities):
    solver.invalidate()
    return solver.rates(capacities)


@pytest.mark.parametrize("kernel", ["kernel", "reference"])
@pytest.mark.parametrize("shape", sorted(COMPONENTS))
def test_bench_fill_component(benchmark, shape, kernel):
    demands, capacities = COMPONENTS[shape]()
    benchmark.group = f"fill_component[{shape}]"
    if kernel == "kernel":
        rates = benchmark(_resolve, _solver(demands), capacities)
    else:
        rates = benchmark(reference_fill_component, demands, capacities)
    assert _bits(rates) == _bits(reference_fill_component(demands, capacities))


class _Churn:
    """Replaces the oldest stream with a new one on the same path."""

    def __init__(self, demands):
        self.live = deque(demands)
        self.next_id = 0

    def step(self):
        old = self.live.popleft()
        new = FlowDemand(("new", self.next_id), old.links, old.cap)
        self.next_id += 1
        self.live.append(new)
        return old, new


@pytest.mark.parametrize("mode", ["incremental", "rebuild"])
def test_bench_churn(benchmark, mode):
    demands, capacities = _frontdoor_component()
    benchmark.group = "churn[frontdoor]"
    churn = _Churn(demands)
    if mode == "incremental":
        solver = _solver(demands)
        known = dict(solver.rates(capacities))

        def step():
            old, new = churn.step()
            solver.remove_flow(old.flow_id)
            del known[old.flow_id]
            solver.add_flow(new.flow_id, new.links, new.cap)
            known.update(solver.rates(capacities))
    else:
        known = {}

        def step():
            churn.step()
            known.clear()
            known.update(max_min_allocation(churn.live, capacities))

    benchmark(step)
    want = max_min_allocation(churn.live, capacities)
    assert _bits({fid: known[fid] for fid in want}) == _bits(want)
