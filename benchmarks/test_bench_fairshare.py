"""Microbenchmark: one max-min water-filling of a connected component.

Every transfer rate and every NWS bandwidth probe comes out of
:func:`repro.network.fairness._fill_component`, so this is the solver's
re-solve cost in isolation.  Two seeded synthetic components:

* ``frontdoor`` — shaped like the median component of the front-door
  brownout benchmark: 14 four-stream transfers (56 capped flows) over
  112 links, each path 8 links of its own plus one of the previous
  path's, which chains them into one component;
* ``paper3`` — the paper's testbed: two capped flows sharing a link.

Each is timed through the kernel and through the reference loop kept
under ``tests/network/``, and the two results must agree bit-for-bit.
Run with ``PYTHONPATH=src python -m pytest benchmarks/test_bench_fairshare.py
--benchmark-only``.
"""

import random
import struct

import pytest

from repro.network.fairness import FlowDemand, _fill_component
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
KERNELS = {
    "kernel": _fill_component,
    "reference": reference_fill_component,
}


def _bits(allocation):
    return [(fid, struct.pack("<d", rate)) for fid, rate in allocation.items()]


@pytest.mark.parametrize("kernel", sorted(KERNELS))
@pytest.mark.parametrize("shape", sorted(COMPONENTS))
def test_bench_fill_component(benchmark, shape, kernel):
    demands, capacities = COMPONENTS[shape]()
    benchmark.group = f"fill_component[{shape}]"
    rates = benchmark(KERNELS[kernel], demands, capacities)
    assert _bits(rates) == _bits(reference_fill_component(demands, capacities))
