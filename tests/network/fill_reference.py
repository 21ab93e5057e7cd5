"""Reference max-min allocation for the differential batteries.

:func:`repro.network.solver._fill_component` fills classes of links
with identical users, keeps live per-class counts and one shared fill
level, and checks caps along a cap-sorted prefix, so that a round costs
O(live classes + flows it freezes); the incremental solver keeps its
link entries, link classes and components between solves.  This module
keeps the straightforward code all that replaced:
:func:`reference_fill_component`, the loop that fills link by link and
rescans every link's whole user set three times a round, and
:func:`flow_components`, a union-find over every demand that derives the
components from scratch.  :func:`reference_allocation` puts the two
together.  They are slow but plainly correct, and
``tests/network/test_fill_differential.py`` and
``tests/network/test_solver_churn.py`` require the library to reproduce
their rates bit-for-bit, in the same key order.  They live under
``tests/`` because nothing in the library may call them.
"""

import math

from repro.network.solver import _EPS

__all__ = [
    "flow_components",
    "reference_allocation",
    "reference_fill_component",
]


def flow_components(demands):
    """Group demands into connected components over shared links.

    Two demands are connected when they share a link key, directly or
    through a chain of other demands.  Returns a list of demand lists;
    both the components and the demands within each preserve the input
    order.
    """
    demands = list(demands)
    parent = list(range(len(demands)))

    def find(index):
        root = index
        while parent[root] != root:
            root = parent[root]
        while parent[index] != root:
            parent[index], index = root, parent[index]
        return root

    link_owner = {}
    for index, demand in enumerate(demands):
        for link in demand.links:
            owner = link_owner.get(link)
            if owner is None:
                link_owner[link] = index
            else:
                root_a, root_b = find(owner), find(index)
                if root_a != root_b:
                    # Attach the younger root under the older one so
                    # roots stay deterministic in input order.
                    if root_a < root_b:
                        parent[root_b] = root_a
                    else:
                        parent[root_a] = root_b

    groups = {}
    for index, demand in enumerate(demands):
        groups.setdefault(find(index), []).append(demand)
    return list(groups.values())


def reference_allocation(demands, link_capacity):
    """Max-min rates in demand order: each component water-filled on
    its own by :func:`reference_fill_component`; a linkless demand
    receives its cap."""
    demands = list(demands)
    rates = {}
    routed = [demand for demand in demands if demand.links]
    for component in flow_components(routed):
        rates.update(reference_fill_component(component, link_capacity))
    return {
        demand.flow_id: rates[demand.flow_id] if demand.links else demand.cap
        for demand in demands
    }


def reference_fill_component(demands, link_capacity):
    """Water-fill one connected component; returns ``flow_id -> rate``.

    The plain progressive-filling loop: every round rescans each link's
    whole user set (to count live users, drain budgets and find
    saturated links) and keeps one running allocation per flow.
    """
    active = {}
    for demand in demands:
        active[demand.flow_id] = demand

    remaining = {}
    users = {}
    for demand in demands:
        for link in demand.links:
            if link not in remaining:
                capacity = float(link_capacity[link])
                if not 0.0 <= capacity < math.inf:
                    # Rejects negative, NaN and infinite capacities: a
                    # NaN would silently poison every rate in the
                    # component, an infinite link would spin the
                    # filling loop forever for capless flows.
                    raise ValueError(
                        f"negative, NaN or infinite capacity "
                        f"{capacity} on {link!r}"
                    )
                remaining[link] = capacity
                users[link] = set()
            users[link].add(demand.flow_id)

    allocation = {fid: 0.0 for fid in active}
    while active:
        # Smallest increment that saturates a link or exhausts a cap.
        increment = math.inf
        for link, flow_ids in users.items():
            live = [fid for fid in flow_ids if fid in active]
            if live:
                increment = min(increment, remaining[link] / len(live))
        for fid, demand in active.items():
            increment = min(increment, demand.cap - allocation[fid])
        if math.isinf(increment):
            # Only capless flows over infinite links remain (impossible
            # now that infinite capacities are rejected); freeze them at
            # infinity rather than loop forever.
            for fid in active:
                allocation[fid] = math.inf
            break
        increment = max(increment, 0.0)

        # Apply the increment and drain link budgets.
        for fid in active:
            allocation[fid] += increment
        for link, flow_ids in users.items():
            live = sum(1 for fid in flow_ids if fid in active)
            if live:
                remaining[link] -= increment * live

        # Freeze flows on saturated links and flows at their caps.
        frozen = set()
        for link, flow_ids in users.items():
            if remaining[link] <= _EPS:
                frozen.update(fid for fid in flow_ids if fid in active)
        for fid, demand in active.items():
            if allocation[fid] >= demand.cap - _EPS:
                frozen.add(fid)
        if not frozen:
            # Numerical guard: increment was ~0 without freezing anyone;
            # freeze the tightest flow to guarantee termination.
            tight = min(
                active,
                key=lambda f: min(
                    [remaining[link] for link in active[f].links] +
                    [active[f].cap - allocation[f]]
                ),
            )
            frozen.add(tight)
        # Delete in the dict's own (insertion) order, not set order, so
        # the surviving iteration order is identical run-to-run.
        for fid in [f for f in active if f in frozen]:
            del active[fid]

    return allocation
