"""Churn battery: the incremental solver vs the reference, bit for bit.

:class:`repro.network.solver.IncrementalMaxMinSolver` keeps its link
entries and components between calls: adding a flow merges the
components its links touch, removing one splits its component lazily at
the next solve, and a capacity change re-solves only the component that
owns the link.  ``rates()`` returns only what it re-solved.

After every step of a random add / remove / capacity / probe sequence,
these tests fold the returned rates into the rates known so far and
compare them with :func:`tests.network.fill_reference.reference_allocation`
— the plain loop run on components derived from scratch — as
``struct.pack("<d")`` bytes.  They also check the bookkeeping that the
bytes alone would not show: every component is either re-solved whole or
left alone (``solves + cache_hits`` grows by the number of components),
the flows of each re-solved component come back in insertion order, and
a NaN capacity on a live link raises on every call until it is fixed.
"""

import math
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.network.fairness import FlowDemand
from repro.network.solver import IncrementalMaxMinSolver
from tests.network.fill_reference import flow_components, reference_allocation

#: Few links, so components merge and split often.
_LINKS = ["a", "b", "c", "d", "e", "f", "g"]

_capacity = st.one_of(
    st.sampled_from([0.0, 1.0, 3.0, 10.0, 100.0, 1e9]),
    st.floats(min_value=0.0, max_value=1e3, allow_nan=False),
    st.floats(min_value=1e6, max_value=1e10, allow_nan=False),
)
_cap = st.one_of(st.just(math.inf), _capacity)
_link_lists = st.lists(st.sampled_from(_LINKS), min_size=0, max_size=4)

_ops = st.lists(
    st.one_of(
        st.tuples(st.just("add"), _link_lists, _cap),
        st.tuples(st.just("add"), _link_lists, _cap),
        st.tuples(st.just("remove"), st.integers(min_value=0)),
        st.tuples(st.just("capacity"), st.sampled_from(_LINKS), _capacity),
        st.tuples(st.just("nan"), st.sampled_from(_LINKS), _capacity),
        st.tuples(st.just("probe"), _link_lists.filter(bool), _cap),
    ),
    min_size=1,
    max_size=50,
)


def _bits(rate):
    return struct.pack("<d", rate)


class _Churn:
    """A solver and the plain model it must agree with."""

    def __init__(self):
        self.solver = IncrementalMaxMinSolver()
        self.capacities = {link: 100.0 for link in _LINKS}
        #: fid -> FlowDemand, in insertion order.
        self.demands = {}
        #: fid -> rate, folded from every ``rates()`` return.
        self.known = {}
        self.next_id = 0

    def add(self, links, cap):
        fid = f"f{self.next_id}"
        self.next_id += 1
        self.solver.add_flow(fid, links, cap)
        self.demands[fid] = FlowDemand(fid, links, cap)
        return fid

    def remove(self, fid):
        self.solver.remove_flow(fid)
        del self.demands[fid]
        self.known.pop(fid, None)

    def components(self):
        routed = [d for d in self.demands.values() if d.links]
        return flow_components(routed)

    def check(self):
        """One ``rates()`` call, checked against the reference."""
        solver = self.solver
        before = solver.solves, solver.cache_hits
        returned = solver.rates(self.capacities)
        components = self.components()
        solved = solver.solves - before[0]
        hits = solver.cache_hits - before[1]
        assert solved + hits == len(components)

        order = {fid: index for index, fid in enumerate(self.demands)}
        resolved = 0
        for component in components:
            fids = [d.flow_id for d in component]
            back = [fid for fid in returned if fid in set(fids)]
            if back:
                # Re-solved whole, in insertion order.
                assert back == sorted(fids, key=order.__getitem__)
                resolved += 1
        assert resolved == solved
        for fid in returned:
            if not self.demands[fid].links:
                # A linkless flow is reported once, when new.
                assert fid not in self.known

        self.known.update(returned)
        want = reference_allocation(self.demands.values(), self.capacities)
        assert set(self.known) == set(want)
        for fid, rate in want.items():
            assert _bits(self.known[fid]) == _bits(rate), fid
        return returned

    def live_links(self):
        return {link for d in self.demands.values() for link in d.links}

    def probe(self, links, cap):
        capacities = self.capacities
        got = self.solver.probe_rate(
            [(link, capacities[link]) for link in links], cap,
            capacities.__getitem__,
        )
        demands = list(self.demands.values())
        demands.append(FlowDemand("__probe__", links, cap))
        want = reference_allocation(demands, capacities)["__probe__"]
        assert _bits(got) == _bits(want)


@settings(max_examples=300, deadline=None)
@given(_ops)
def test_churn_matches_reference_bit_for_bit(ops):
    churn = _Churn()
    for op in ops:
        kind = op[0]
        if kind == "add":
            churn.add(op[1], op[2])
        elif kind == "remove":
            if not churn.demands:
                continue
            fids = list(churn.demands)
            churn.remove(fids[op[1] % len(fids)])
        elif kind == "capacity":
            churn.capacities[op[1]] = op[2]
        elif kind == "nan":
            _, link, restored = op
            churn.capacities[link] = math.nan
            if link in churn.live_links():
                # Raises on every call until the capacity is fixed.
                for _ in range(2):
                    with pytest.raises(ValueError, match="NaN"):
                        churn.solver.rates(churn.capacities)
            churn.capacities[link] = restored
        else:
            churn.probe(op[1], op[2])
            continue
        churn.check()


def test_add_merges_the_components_it_touches():
    churn = _Churn()
    churn.add(["a"], 30.0)
    churn.add(["b"], 70.0)
    assert len(churn.check()) == 2
    churn.add(["a", "b"], math.inf)
    solves = churn.solver.solves
    assert list(churn.check()) == ["f0", "f1", "f2"]
    assert churn.solver.solves == solves + 1
    assert churn.known == {"f0": 30.0, "f1": 50.0, "f2": 50.0}


def test_removal_splits_one_component_into_three():
    churn = _Churn()
    for link in ("a", "b", "c"):
        churn.add([link], math.inf)
    churn.add(["a", "b", "c"], math.inf)
    churn.check()
    churn.remove("f3")
    solves = churn.solver.solves
    assert list(churn.check()) == ["f0", "f1", "f2"]
    assert churn.solver.solves == solves + 3
    # The three pieces are now independent: a capacity change on one
    # re-solves only that one.
    churn.capacities["b"] = 40.0
    solves, hits = churn.solver.solves, churn.solver.cache_hits
    assert churn.check() == {"f1": 40.0}
    assert churn.solver.solves == solves + 1
    assert churn.solver.cache_hits == hits + 2


def test_removal_that_keeps_the_component_whole():
    churn = _Churn()
    churn.add(["a", "b"], 10.0)
    churn.add(["a", "b"], 10.0)
    churn.add(["b", "c"], math.inf)
    churn.check()
    churn.remove("f0")
    assert list(churn.check()) == ["f1", "f2"]
    assert churn.known == {"f1": 10.0, "f2": 90.0}


def test_capacity_change_resolves_only_its_component():
    churn = _Churn()
    churn.add(["a", "b"], math.inf)
    churn.add(["c"], math.inf)
    churn.check()
    churn.capacities["b"] = 25.0
    solves, hits = churn.solver.solves, churn.solver.cache_hits
    assert churn.check() == {"f0": 25.0}
    assert (churn.solver.solves, churn.solver.cache_hits) == (
        solves + 1, hits + 1
    )
    # An unchanged capacity (even written again) re-solves nothing.
    churn.capacities["b"] = 25.0
    assert churn.check() == {}


def test_nan_capacity_raises_until_fixed():
    churn = _Churn()
    churn.add(["a"], math.inf)
    churn.add(["b"], math.inf)
    churn.check()
    churn.capacities["a"] = math.nan
    for _ in range(3):
        with pytest.raises(ValueError, match="NaN"):
            churn.solver.rates(churn.capacities)
    churn.capacities["a"] = 5.0
    assert churn.check() == {"f0": 5.0}


def test_bad_capacity_is_not_remembered():
    """A rejected value must not become the stored capacity, or the
    next call would see "no change" and return stale rates."""
    churn = _Churn()
    churn.add(["a"], math.inf)
    churn.check()
    for bad in (-1.0, math.inf):
        churn.capacities["a"] = bad
        for _ in range(2):
            with pytest.raises(ValueError):
                churn.solver.rates(churn.capacities)
    churn.capacities["a"] = 100.0
    assert churn.check() == {}


def test_linkless_flow_reported_once():
    churn = _Churn()
    churn.add([], 42.0)
    assert churn.check() == {"f0": 42.0}
    assert churn.check() == {}
    churn.add([], 7.0)
    churn.remove("f1")
    assert churn.check() == {}


def test_probe_joins_every_component_it_touches():
    churn = _Churn()
    churn.add(["a"], math.inf)
    churn.add(["b", "c"], 20.0)
    churn.add(["d"], math.inf)
    churn.check()
    churn.probe(["a", "c", "e"], math.inf)
    churn.probe(["e"], 3.0)
    assert churn.solver.probe_solves == 1
    # Probing changes nothing: the next solve re-solves nothing.
    assert churn.check() == {}


def test_probe_after_removal_sees_the_split():
    """Filling the stale, unsplit component would round differently:
    ``b`` would saturate first and split the probe's level into two
    increments."""
    churn = _Churn()
    churn.capacities.update(a=900.9995912588721, b=114.09275868849122)
    churn.add(["a"], math.inf)
    churn.add(["b"], math.inf)
    churn.add(["a", "b"], math.inf)
    churn.check()
    churn.remove("f2")
    churn.probe(["a"], math.inf)
    churn.probe(["b"], math.inf)
    churn.check()


def test_merge_keeps_a_pending_split():
    """A component waiting for its split, merged into another one
    before the next solve, must still be split: otherwise its pieces are
    filled together with flows they no longer share a link with, which
    rounds differently.  (A shrunk random churn case.)"""
    churn = _Churn()
    churn.capacities.update(
        a=424.4298952516174, b=90.87439617701241, c=420.02137625467543,
        d=610.9747837564231, e=975.3576106449264, f=479.26411262108815,
        g=185.57599887847843,
    )
    churn.add(["b", "d"], 250.6666086626991)
    churn.add(["c", "a"], 181.10098093036967)
    churn.add(["a"], 255.88359082387004)
    churn.add(["e"], math.inf)
    churn.add(["f", "e", "d"], math.inf)
    churn.add(["d", "g", "c"], 25.384684315362158)
    churn.add(["f", "b", "d"], 196.5542340727882)
    churn.remove("f0")
    churn.remove("f5")
    churn.check()
    # f4 bridged {f3} and {f6}: the component now waits for its split.
    churn.remove("f4")
    churn.add(["a", "f", "d"], 238.4319282091349)
    churn.check()


def test_probe_reads_fresh_capacities():
    churn = _Churn()
    churn.add(["a", "b"], math.inf)
    churn.check()
    churn.capacities["b"] = 8.0
    churn.probe(["a"], math.inf)
    # The stored capacity is untouched, so the change is still seen.
    assert churn.check() == {"f0": 8.0}
