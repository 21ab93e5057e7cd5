"""Differential battery: IncrementalMaxMinSolver vs the pure oracle.

The incremental solver's whole claim is *exact* equality with
:func:`tests.network.fairness.max_min_allocation` — not approximate:
component arithmetic is a pure function of (demand order, caps, link
capacities), so the rates of components it leaves alone must be
bit-identical to a fresh solve.  ``rates()`` returns only the rates it
re-solved; these tests fold them into the rates known so far, drive
random churn sequences (flow arrivals, departures, capacity rewrites)
through both paths and compare with ``==``.

Also here: the NaN/inf capacity regression tests for the oracle, since
rejecting poisoned capacities is what makes the cache's float-equality
comparison well-behaved.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.network.fairness import FlowDemand, max_min_allocation
from repro.network.solver import IncrementalMaxMinSolver

#: A small link universe forces heavy sharing (big components) while
#: still leaving room for disjoint corners (cache hits).
_LINKS = ["a", "b", "c", "d", "e", "f"]

_caps = st.one_of(
    st.just(math.inf),
    st.floats(min_value=0.1, max_value=500.0, allow_nan=False),
)

_link_sets = st.lists(
    st.sampled_from(_LINKS), min_size=0, max_size=3, unique=True
)

#: Churn ops: ("add", links, cap), ("remove",), ("capacity", link, value).
_ops = st.lists(
    st.one_of(
        st.tuples(st.just("add"), _link_sets, _caps),
        st.tuples(st.just("remove")),
        st.tuples(
            st.just("capacity"),
            st.sampled_from(_LINKS),
            st.floats(min_value=1.0, max_value=1000.0, allow_nan=False),
        ),
    ),
    min_size=1,
    max_size=40,
)


def _oracle(demands, capacities):
    """Fresh oracle solve over re-built (order-preserving) demands."""
    rebuilt = [
        FlowDemand(d.flow_id, d.links, d.cap) for d in demands.values()
    ]
    return max_min_allocation(rebuilt, capacities)


@settings(max_examples=150, deadline=None)
@given(_ops)
def test_churn_matches_oracle_exactly(ops):
    """Property: after every churn step, rates == a full oracle solve."""
    solver = IncrementalMaxMinSolver()
    demands = {}
    capacities = {link: 100.0 for link in _LINKS}
    known = {}
    next_id = 0
    for op in ops:
        if op[0] == "add":
            _, links, cap = op
            fid = f"flow{next_id}"
            next_id += 1
            solver.add_flow(fid, links, cap)
            demands[fid] = FlowDemand(fid, links, cap)
        elif op[0] == "remove":
            if not demands:
                continue
            fid = next(iter(demands))
            solver.remove_flow(fid)
            del demands[fid]
            del known[fid]
        else:
            _, link, value = op
            capacities[link] = value
        known.update(solver.rates(capacities))
        oracle = _oracle(demands, capacities)
        # Exact equality, not approx: the cache contract is bit-identity.
        assert known == oracle


@settings(max_examples=150, deadline=None)
@given(
    _link_sets.filter(bool),
    _caps,
    st.lists(st.tuples(_link_sets, _caps), min_size=0, max_size=6),
)
def test_probe_rate_matches_oracle_with_probe_appended(
    probe_links, probe_cap, flows
):
    """probe_rate == oracle over (live flows + probe appended last)."""
    solver = IncrementalMaxMinSolver()
    capacities = {link: 100.0 for link in _LINKS}
    demands = []
    for index, (links, cap) in enumerate(flows):
        fid = f"flow{index}"
        solver.add_flow(fid, links, cap)
        demands.append(FlowDemand(fid, links, cap))

    probed = solver.probe_rate(
        [(link, capacities[link]) for link in probe_links],
        probe_cap,
        capacities.__getitem__,
    )
    demands.append(FlowDemand("__probe__", probe_links, probe_cap))
    oracle = max_min_allocation(demands, capacities)
    assert probed == oracle["__probe__"]


def test_unchanged_component_is_a_cache_hit():
    solver = IncrementalMaxMinSolver()
    solver.add_flow("left", ["a"])
    solver.add_flow("right", ["b"])
    capacities = {"a": 10.0, "b": 20.0}
    first = solver.rates(capacities)
    assert first == {"left": 10.0, "right": 20.0}
    assert solver.solves == 2 and solver.cache_hits == 0
    # Nothing changed, so nothing is re-solved or returned.
    assert solver.rates(capacities) == {}
    assert solver.solves == 2 and solver.cache_hits == 2


def test_capacity_change_invalidates_only_touched_component():
    solver = IncrementalMaxMinSolver()
    solver.add_flow("left", ["a"])
    solver.add_flow("right", ["b"])
    capacities = {"a": 10.0, "b": 20.0}
    solver.rates(capacities)
    capacities["a"] = 5.0
    rates = solver.rates(capacities)
    assert rates == {"left": 5.0}
    # left re-solved, right was served from cache.
    assert solver.solves == 3 and solver.cache_hits == 1


def test_departure_resolves_remaining_flows():
    solver = IncrementalMaxMinSolver()
    solver.add_flow("one", ["a"])
    solver.add_flow("two", ["a"])
    capacities = {"a": 100.0}
    assert solver.rates(capacities) == {"one": 50.0, "two": 50.0}
    solver.remove_flow("one")
    assert solver.rates(capacities) == {"two": 100.0}


def test_loopback_flow_receives_its_cap_without_solving():
    solver = IncrementalMaxMinSolver()
    solver.add_flow("loop", [], cap=42.0)
    assert solver.rates({}) == {"loop": 42.0}
    assert solver.solves == 0


def test_duplicate_flow_id_rejected():
    solver = IncrementalMaxMinSolver()
    solver.add_flow("f", ["a"])
    with pytest.raises(ValueError):
        solver.add_flow("f", ["b"])


def test_invalidate_forces_full_resolve():
    solver = IncrementalMaxMinSolver()
    solver.add_flow("f", ["a"])
    capacities = {"a": 10.0}
    first = solver.rates(capacities)
    solver.invalidate()
    assert solver.rates(capacities) == first
    assert solver.cache_hits == 0 and solver.solves == 2


def test_empty_closure_probe_is_min_of_caps():
    """The sensor fast path: an idle corner needs no water-filling."""
    solver = IncrementalMaxMinSolver()
    rate = solver.probe_rate(
        [("a", 30.0), ("b", 10.0)], 50.0, lambda key: 100.0
    )
    assert rate == 10.0
    assert solver.probe_solves == 0


class TestCapacityValidation:
    """Regression: NaN/inf capacities must be rejected, not propagated.

    ``max_min_allocation`` used to accept a NaN capacity and silently
    poison every rate in the component; an infinite capacity could spin
    the filling loop.  Both are now hard errors at first touch.
    """

    def test_nan_capacity_rejected(self):
        with pytest.raises(ValueError, match="NaN"):
            max_min_allocation(
                [FlowDemand("f", ["l"])], {"l": math.nan}
            )

    def test_infinite_capacity_rejected(self):
        with pytest.raises(ValueError, match="infinite"):
            max_min_allocation(
                [FlowDemand("f", ["l"])], {"l": math.inf}
            )

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            max_min_allocation(
                [FlowDemand("f", ["l"])], {"l": -1.0}
            )

    def test_nan_cap_on_demand_rejected(self):
        with pytest.raises(ValueError, match="NaN"):
            FlowDemand("f", ["l"], cap=math.nan)

    def test_negative_cap_on_demand_rejected(self):
        with pytest.raises(ValueError):
            FlowDemand("f", ["l"], cap=-2.0)

    def test_probe_path_rejects_nan_capacity(self):
        solver = IncrementalMaxMinSolver()
        with pytest.raises(ValueError, match="NaN"):
            solver.probe_rate(
                [("l", math.nan)], 10.0, lambda key: 100.0
            )

    def test_zero_capacity_is_legal_and_starves_flows(self):
        rates = max_min_allocation(
            [FlowDemand("f", ["l"])], {"l": 0.0}
        )
        assert rates == {"f": 0.0}
