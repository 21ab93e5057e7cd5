"""Differential battery: the water-filling kernel vs the reference loop.

:func:`repro.network.solver._fill_component` fills classes of links
with identical users (each budgeted by its tightest member), counts
live users per class, keeps one shared fill level and checks caps along
a cap-sorted prefix instead of rescanning every link's user set each
round, and it fills from the solver's persistent link classes.  The
claim is that every level it reaches is the one the link-by-link loop
reaches, bit for bit (the kernel's docstring gives the monotone-rounding
argument), so :func:`tests.network.fairness.max_min_allocation`
(a fresh solver, solved once) must equal
:func:`tests.network.fill_reference.reference_allocation` — the
reference loop run on each component found by a from-scratch
union-find — *bit-for-bit* (signed zeros included) and in the same key
order.  The solver battery in ``test_fairness_incremental.py`` cannot
check this: its oracle, ``max_min_allocation``, runs the same kernel.

The strategies draw values from small pools so that ties are common:
many flows on one link, caps equal to a link's fair share, link and cap
limits landing on the same increment, zero (and negative-zero)
capacities and caps, demands that list one link twice, and single-flow
components.  Byte-scale capacities make ``remaining - share * n`` round
above the saturation epsilon, which drives the termination guard.
"""

import math
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.network.fairness import FlowDemand, max_min_allocation
from tests.network.fill_reference import reference_allocation

_LINKS = ["a", "b", "c", "d", "e"]

#: Capacities, bytes/s: zeros of both signs, exact small values, values
#: below the saturation epsilon and byte-scale values with rounding.
_capacity = st.one_of(
    st.sampled_from([0.0, -0.0, 1e-10, 1.0, 3.0, 10.0, 100.0, 1e9]),
    st.floats(min_value=0.0, max_value=1e3, allow_nan=False),
    st.floats(min_value=1e6, max_value=1e10, allow_nan=False),
)


@st.composite
def _components(draw, max_flows=12):
    links = draw(
        st.lists(st.sampled_from(_LINKS), min_size=1, max_size=5,
                 unique=True)
    )
    capacities = {link: draw(_capacity) for link in links}
    flows = draw(st.integers(min_value=1, max_value=max_flows))
    # A cap equal to some link's fair share among k flows ties a cap
    # limit with a link limit.
    fair_share = st.builds(
        lambda link, k: capacities[link] / k,
        st.sampled_from(links),
        st.integers(min_value=1, max_value=flows),
    )
    cap = st.one_of(st.just(math.inf), _capacity, fair_share)
    # Not unique: a demand may list the same link twice.
    own_links = st.lists(st.sampled_from(links), min_size=1, max_size=4)
    demands = [
        FlowDemand(f"f{index}", draw(own_links), draw(cap))
        for index in range(flows)
    ]
    return demands, capacities


def _bits(allocation):
    """Key order plus each rate's exact IEEE-754 bytes."""
    return [(fid, struct.pack("<d", rate)) for fid, rate in allocation.items()]


def _assert_identical(demands, capacities):
    want = reference_allocation(demands, capacities)
    got = max_min_allocation(demands, capacities)
    assert _bits(got) == _bits(want)
    return got


@settings(max_examples=400, deadline=None)
@given(_components())
def test_kernel_matches_reference_bit_for_bit(component):
    _assert_identical(*component)


@settings(max_examples=100, deadline=None)
@given(_components(max_flows=60))
def test_kernel_matches_reference_on_large_components(component):
    _assert_identical(*component)


@settings(max_examples=100, deadline=None)
@given(
    st.integers(min_value=1, max_value=200),
    _capacity,
    st.lists(st.one_of(st.just(math.inf), _capacity), min_size=1,
             max_size=200),
)
def test_many_flows_on_one_link(flows, capacity, caps):
    demands = [
        FlowDemand(index, ["x"], caps[index % len(caps)])
        for index in range(flows)
    ]
    _assert_identical(demands, {"x": capacity})


@settings(max_examples=100, deadline=None)
@given(_capacity, st.one_of(st.just(math.inf), _capacity),
       st.integers(min_value=1, max_value=4))
def test_single_flow_component(capacity, cap, repeats):
    demands = [FlowDemand("solo", ["x"] * repeats, cap)]
    got = _assert_identical(demands, {"x": capacity})
    assert got["solo"] == min(cap, capacity)


def test_duplicate_link_counts_once():
    demands = [
        FlowDemand("twice", ["x", "y", "x"]),
        FlowDemand("once", ["x"]),
    ]
    got = _assert_identical(demands, {"x": 10.0, "y": 100.0})
    assert got == {"twice": 5.0, "once": 5.0}


def test_zero_capacity_freezes_its_flows_at_zero():
    demands = [
        FlowDemand("dead", ["z", "a"]),
        FlowDemand("alive", ["a"], cap=4.0),
        FlowDemand("neg_zero", ["n"]),
    ]
    got = _assert_identical(demands, {"z": 0.0, "a": 10.0, "n": -0.0})
    assert got == {"dead": 0.0, "alive": 4.0, "neg_zero": 0.0}


def test_signed_zero_capacities_and_caps():
    demands = [
        FlowDemand("pos", ["x"], cap=0.0),
        FlowDemand("neg", ["x"], cap=-0.0),
    ]
    _assert_identical(demands, {"x": -0.0})
    _assert_identical(list(reversed(demands)), {"x": 0.0})


def test_termination_guard_path():
    """Three uncapped flows share a byte-scale link whose capacity does
    not divide by three exactly: the link never drains below the
    saturation epsilon, so the tightest flow is frozen by the guard."""
    capacity = 437951594.5844042
    assert capacity - (capacity / 3) * 3 > 1e-9
    demands = [
        FlowDemand(0, ["a"], 3349173056.100918),
        FlowDemand(1, ["a"]),
        FlowDemand(2, ["a"]),
    ]
    _assert_identical(demands, {"a": capacity})


def test_linkless_capless_demand_escapes_at_infinity():
    """A linkless demand is never water-filled: it receives its cap."""
    demands = [FlowDemand("free", []), FlowDemand("bound", ["x"], cap=2.0)]
    got = _assert_identical(demands, {"x": 1.0})
    assert got == {"free": math.inf, "bound": 1.0}


@pytest.mark.parametrize("bad", [-1.0, math.nan, math.inf])
def test_bad_capacity_rejected_like_reference(bad):
    demands = [FlowDemand("f", ["ok", "bad"])]
    capacities = {"ok": 1.0, "bad": bad}
    with pytest.raises(ValueError):
        reference_allocation(demands, capacities)
    with pytest.raises(ValueError):
        max_min_allocation(demands, capacities)
