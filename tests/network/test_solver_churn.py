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

The solver fills link *classes* (live links used by exactly the same
flows) instead of single links, so after every step the battery also
checks the classes themselves (:func:`_check_classes`): each live link's
class holds exactly the flows over that link, in insertion order, and
no two classes hold the same flows.  A second, transfer-shaped battery
makes classes form, split and merge the way GridFTP transfers do:
parallel streams over the same path, multi-link private segments
between one replica and one client, and replica links shared by
transfers to different clients.
"""

import math
import struct
from itertools import chain

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



def _transfer_links(client, replica, hops):
    """One stream's path: the client's edge link and sink channels, the
    replica→client pair's private hops (the first ``hops`` of them), the
    replica's uplink and its source channels."""
    return (
        [("edge", client), ("sink-disk", client), ("sink-cpu", client)]
        + [("hop", replica, client, hop) for hop in range(hops)]
        + [("uplink", replica), ("source-disk", replica),
           ("source-cpu", replica)]
    )


#: Three clients and three replicas, up to three private hops a pair.
_TRANSFER_LINKS = list(dict.fromkeys(chain.from_iterable(
    _transfer_links(client, replica, 3)
    for client in range(3) for replica in range(3)
)))

_transfer_ops = st.lists(
    st.one_of(
        # client, replica, private hops, streams, per-stream cap
        st.tuples(st.just("transfer"), st.integers(0, 2), st.integers(0, 2),
                  st.integers(1, 3), st.integers(1, 4), _cap),
        st.tuples(st.just("transfer"), st.integers(0, 2), st.integers(0, 2),
                  st.integers(1, 3), st.integers(1, 4), _cap),
        st.tuples(st.just("remove"), st.integers(min_value=0)),
        st.tuples(st.just("remove"), st.integers(min_value=0)),
        st.tuples(st.just("capacity"), st.sampled_from(_TRANSFER_LINKS),
                  _capacity),
        st.tuples(st.just("nan"), st.sampled_from(_TRANSFER_LINKS),
                  _capacity),
        # A sensor probe over part of a path splits classes for its fill.
        st.tuples(st.just("probe"),
                  st.lists(st.sampled_from(_TRANSFER_LINKS), min_size=1,
                           max_size=4),
                  _cap),
    ),
    min_size=1,
    max_size=40,
)


def _bits(rate):
    return struct.pack("<d", rate)


def _classes(solver):
    """``{member keys: flow ids}`` for every live class of ``solver``."""
    classes = {}
    for state in solver._links.values():
        cls = state.cls
        classes[id(cls)] = (
            tuple(sorted(member.key for member in cls.members)),
            list(cls.users),
        )
    return dict(classes.values())


def _check_classes(solver, demands):
    """The solver's link classes agree with ``demands`` (fid ->
    FlowDemand, in insertion order).

    Each live link's class holds exactly the flows over that link, in
    insertion order (so all members of a class have identical user
    sequences); each member points back at its class; no two live
    classes hold the same flows; and each flow lists the distinct
    classes of its links once each.
    """
    users = {}
    for fid, demand in demands.items():
        for link in dict.fromkeys(demand.links):
            users.setdefault(link, []).append(fid)
    states = solver._links
    assert set(states) == set(users)
    classes = {}
    for key, state in states.items():
        cls = state.cls
        assert list(cls.users) == users[key], key
        assert any(member is state for member in cls.members)
        classes[id(cls)] = cls
    assert sum(len(cls.members) for cls in classes.values()) == len(states)
    user_sets = [tuple(cls.users) for cls in classes.values()]
    assert len(set(user_sets)) == len(user_sets)
    for fid, demand in demands.items():
        flow = solver._flows[fid]
        want = {id(states[link].cls) for link in demand.links}
        assert sorted(map(id, flow.classes)) == sorted(want), fid


class _Churn:
    """A solver and the plain model it must agree with."""

    def __init__(self, capacities=None):
        self.solver = IncrementalMaxMinSolver()
        if capacities is None:
            capacities = {link: 100.0 for link in _LINKS}
        self.capacities = dict(capacities)
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
        _check_classes(solver, self.demands)

        # Every link of the re-solved components is loaded with its
        # flows' rates, summed in insertion order from 0.0.
        loads = {
            key: load
            for keys, load in solver.class_loads(returned) for key in keys
        }
        assert set(loads) == {
            link for fid in returned for link in self.demands[fid].links
        }
        for link, load in loads.items():
            want = 0.0
            for fid, demand in self.demands.items():
                if link in demand.links:
                    want += self.known[fid]
            assert _bits(load) == _bits(want), link
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
        # The classes the probe split for its fill have merged back.
        _check_classes(self.solver, self.demands)
        return got


def _run(churn, ops):
    """Apply ``ops`` to ``churn``, checking after every step."""
    for op in ops:
        kind = op[0]
        if kind == "add":
            churn.add(op[1], op[2])
        elif kind == "transfer":
            _, client, replica, hops, streams, cap = op
            links = _transfer_links(client, replica, hops)
            for _ in range(streams):
                churn.add(links, cap)
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


@settings(max_examples=300, deadline=None)
@given(_ops)
def test_churn_matches_reference_bit_for_bit(ops):
    _run(_Churn(), ops)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(_capacity, min_size=len(_TRANSFER_LINKS),
             max_size=len(_TRANSFER_LINKS)),
    _transfer_ops,
)
def test_transfer_churn_matches_reference_bit_for_bit(capacities, ops):
    _run(_Churn(dict(zip(_TRANSFER_LINKS, capacities))), ops)


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


# -- link classes ---------------------------------------------------------


def test_add_covering_part_of_a_class_splits_it():
    churn = _Churn()
    churn.add(["a", "b", "c"], math.inf)
    churn.add(["a", "b", "c"], math.inf)
    churn.check()
    assert _classes(churn.solver) == {("a", "b", "c"): ["f0", "f1"]}
    churn.add(["b"], 10.0)
    churn.check()
    assert _classes(churn.solver) == {
        ("a", "c"): ["f0", "f1"],
        ("b",): ["f0", "f1", "f2"],
    }
    # A flow covering a class whole keeps its object.
    cls = churn.solver._links["b"].cls
    churn.add(["b", "d"], math.inf)
    churn.check()
    assert churn.solver._links["b"].cls is cls


def test_removal_that_makes_two_classes_equal_merges_them():
    churn = _Churn()
    churn.add(["a", "b", "c"], math.inf)
    churn.add(["b"], math.inf)
    churn.add(["c", "d"], math.inf)
    churn.check()
    assert _classes(churn.solver) == {
        ("a",): ["f0"],
        ("b",): ["f0", "f1"],
        ("c",): ["f0", "f2"],
        ("d",): ["f2"],
    }
    churn.remove("f1")
    churn.check()
    assert _classes(churn.solver) == {
        ("a", "b"): ["f0"],
        ("c",): ["f0", "f2"],
        ("d",): ["f2"],
    }
    churn.remove("f2")
    churn.check()
    assert _classes(churn.solver) == {("a", "b", "c"): ["f0"]}


def test_merge_partner_has_the_same_flows_not_just_as_many():
    """f0's first class, {a}, holds as many flows as {c} after f3
    leaves, but not the same ones: {c} merges with {b}."""
    churn = _Churn()
    churn.add(["a", "b", "c"], math.inf)
    churn.add(["b", "c"], math.inf)
    churn.add(["a"], math.inf)
    churn.add(["c"], math.inf)
    churn.check()
    churn.remove("f3")
    churn.check()
    assert _classes(churn.solver) == {
        ("a",): ["f0", "f2"],
        ("b", "c"): ["f0", "f1"],
    }


def test_capacity_change_that_moves_the_tightest_member():
    churn = _Churn()
    churn.capacities.update(a=30.0, b=50.0, c=70.0)
    churn.add(["a", "b", "c"], math.inf)
    churn.add(["a", "b", "c"], math.inf)
    assert churn.check() == {"f0": 15.0, "f1": 15.0}
    churn.capacities["a"] = 90.0
    assert churn.check() == {"f0": 25.0, "f1": 25.0}
    churn.capacities["c"] = 10.0
    assert churn.check() == {"f0": 5.0, "f1": 5.0}
    # Equal capacities: the first member budgets the class.
    churn.capacities.update(a=10.0, b=10.0)
    assert churn.check() == {"f0": 5.0, "f1": 5.0}


def test_nan_on_a_non_tightest_member_raises():
    churn = _Churn()
    churn.capacities.update(a=10.0, b=100.0)
    churn.add(["a", "b"], math.inf)
    churn.check()
    churn.capacities["b"] = math.nan
    for _ in range(2):
        with pytest.raises(ValueError, match="NaN"):
            churn.solver.rates(churn.capacities)
    # A probe reads every member of the classes it fills, too.
    with pytest.raises(ValueError, match="NaN"):
        churn.solver.probe_rate(
            [("a", 10.0)], math.inf, churn.capacities.__getitem__
        )
    _check_classes(churn.solver, churn.demands)
    churn.capacities["b"] = 100.0
    churn.check()


def test_probe_covering_part_of_a_class():
    churn = _Churn()
    churn.capacities.update(a=100.0, b=12.0, c=40.0)
    churn.add(["a", "b", "c"], 5.0)
    churn.add(["a", "b", "c"], math.inf)
    churn.check()
    classes = _classes(churn.solver)
    assert classes == {("a", "b", "c"): ["f0", "f1"]}
    # The probe shares only c, whose budget is 40, not the class's 12:
    # f0 stops at its cap (5), f1 when a and b run out (7), and the
    # probe takes what is left of c.
    assert churn.probe(["c", "e"], math.inf) == 28.0
    assert churn.probe(["b"], math.inf) == 4.0
    assert _classes(churn.solver) == classes
    # Probing changes nothing: the next solve re-solves nothing.
    assert churn.check() == {}


def test_signed_zero_caps_and_capacities_in_classes():
    churn = _Churn()
    churn.capacities.update(a=-0.0, b=0.0, c=3.0, d=-0.0)
    churn.add(["a", "b", "c"], -0.0)
    churn.add(["a", "b", "c"], 0.0)
    churn.add(["c", "d"], -0.0)
    churn.add(["c"], 0.0)
    churn.add(["c"], math.inf)
    churn.check()
    churn.probe(["b", "c"], -0.0)
    churn.probe(["d"], math.inf)
    churn.capacities.update(a=0.0, b=-0.0)
    churn.check()
    churn.remove("f2")
    churn.check()
