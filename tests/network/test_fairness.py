"""Tests for the max-min fair allocator, including hypothesis properties."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.network.fairness import FlowDemand, max_min_allocation


def alloc(demands, capacities):
    return max_min_allocation(demands, capacities)


def test_single_flow_gets_bottleneck():
    rates = alloc(
        [FlowDemand("f", ["a", "b"])], {"a": 100.0, "b": 40.0}
    )
    assert rates["f"] == pytest.approx(40.0)


def test_equal_flows_split_link_evenly():
    demands = [FlowDemand(f"f{i}", ["l"]) for i in range(4)]
    rates = alloc(demands, {"l": 100.0})
    for i in range(4):
        assert rates[f"f{i}"] == pytest.approx(25.0)


def test_cap_limits_flow_and_frees_bandwidth():
    demands = [
        FlowDemand("capped", ["l"], cap=10.0),
        FlowDemand("free", ["l"]),
    ]
    rates = alloc(demands, {"l": 100.0})
    assert rates["capped"] == pytest.approx(10.0)
    assert rates["free"] == pytest.approx(90.0)


def test_classic_parking_lot():
    # f0 crosses both links; f1 only link a; f2 only link b.
    demands = [
        FlowDemand("f0", ["a", "b"]),
        FlowDemand("f1", ["a"]),
        FlowDemand("f2", ["b"]),
    ]
    rates = alloc(demands, {"a": 10.0, "b": 10.0})
    assert rates["f0"] == pytest.approx(5.0)
    assert rates["f1"] == pytest.approx(5.0)
    assert rates["f2"] == pytest.approx(5.0)


def test_asymmetric_parking_lot():
    demands = [
        FlowDemand("long", ["a", "b"]),
        FlowDemand("short", ["b"]),
    ]
    rates = alloc(demands, {"a": 4.0, "b": 10.0})
    # long is bottlenecked on a at 4; short gets the rest of b.
    assert rates["long"] == pytest.approx(4.0)
    assert rates["short"] == pytest.approx(6.0)


def test_loopback_flow_receives_cap():
    rates = alloc([FlowDemand("lo", [], cap=123.0)], {})
    assert rates["lo"] == pytest.approx(123.0)


def test_zero_cap_flow_gets_zero():
    demands = [FlowDemand("z", ["l"], cap=0.0), FlowDemand("f", ["l"])]
    rates = alloc(demands, {"l": 50.0})
    assert rates["z"] == pytest.approx(0.0)
    assert rates["f"] == pytest.approx(50.0)


def test_zero_capacity_link_starves_flows():
    rates = alloc([FlowDemand("f", ["l"])], {"l": 0.0})
    assert rates["f"] == pytest.approx(0.0)


def test_duplicate_flow_ids_rejected():
    with pytest.raises(ValueError):
        alloc(
            [FlowDemand("f", ["l"]), FlowDemand("f", ["l"])],
            {"l": 1.0},
        )


def test_negative_cap_rejected():
    with pytest.raises(ValueError):
        FlowDemand("f", ["l"], cap=-1.0)


def test_no_flows_returns_empty():
    assert alloc([], {"l": 10.0}) == {}


# -- hypothesis properties ------------------------------------------------

link_names = st.lists(
    st.sampled_from("abcdefgh"), min_size=1, max_size=4, unique=True
)


@st.composite
def scenarios(draw):
    n_links = draw(st.integers(1, 6))
    links = [f"l{i}" for i in range(n_links)]
    capacities = {
        l: draw(st.floats(0.1, 1000.0, allow_nan=False)) for l in links
    }
    n_flows = draw(st.integers(1, 8))
    demands = []
    for i in range(n_flows):
        flow_links = draw(
            st.lists(st.sampled_from(links), min_size=1, max_size=n_links,
                     unique=True)
        )
        cap = draw(
            st.one_of(st.just(math.inf), st.floats(0.1, 500.0))
        )
        demands.append(FlowDemand(f"f{i}", flow_links, cap))
    return demands, capacities


@given(scenarios())
@settings(max_examples=200, deadline=None)
def test_allocation_is_feasible_and_capped(scenario):
    demands, capacities = scenario
    rates = alloc(demands, capacities)
    # Every flow has a finite, non-negative rate not above its cap.
    for demand in demands:
        rate = rates[demand.flow_id]
        assert rate >= -1e-9
        assert rate <= demand.cap + 1e-6
    # No link is oversubscribed.
    for link, capacity in capacities.items():
        used = sum(
            rates[d.flow_id] for d in demands if link in d.links
        )
        assert used <= capacity + 1e-6 * max(1.0, capacity)


@given(scenarios())
@settings(max_examples=200, deadline=None)
def test_allocation_is_pareto_efficient(scenario):
    """Every flow is blocked by a saturated link or its own cap."""
    demands, capacities = scenario
    rates = alloc(demands, capacities)
    residual = dict(capacities)
    for demand in demands:
        for link in demand.links:
            residual[link] -= rates[demand.flow_id]
    for demand in demands:
        rate = rates[demand.flow_id]
        at_cap = rate >= demand.cap - 1e-6
        blocked = any(
            residual[link] <= 1e-5 * max(1.0, capacities[link])
            for link in demand.links
        )
        assert at_cap or blocked, (
            f"{demand.flow_id} could still grow: rate={rate}"
        )


@given(scenarios())
@settings(max_examples=100, deadline=None)
def test_allocation_is_deterministic(scenario):
    demands, capacities = scenario
    assert alloc(demands, capacities) == alloc(demands, capacities)


@given(st.integers(1, 20), st.floats(1.0, 1000.0))
@settings(max_examples=50, deadline=None)
def test_symmetric_flows_get_equal_rates(n, capacity):
    demands = [FlowDemand(f"f{i}", ["l"]) for i in range(n)]
    rates = alloc(demands, {"l": capacity})
    expected = capacity / n
    for i in range(n):
        assert rates[f"f{i}"] == pytest.approx(expected, rel=1e-6)
