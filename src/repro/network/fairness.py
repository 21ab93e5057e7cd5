"""Max-min fair bandwidth allocation with per-flow rate caps.

This is the classic progressive-filling (water-filling) algorithm: all
flows' rates rise together; whenever a link saturates, every flow through
it freezes at its current rate; whenever a flow hits its own cap (TCP
window limit, disk ceiling, ...), that flow freezes.  The result is the
unique max-min fair allocation subject to the caps.

Flows that share no link (directly or transitively) cannot influence each
other's rates, so the solver first splits the demand set into connected
components over shared links and water-fills each component on its own.
Besides being faster — a filling round costs O(live links + active
flows) of one component, not of the grid — this is what makes the
*incremental* solver (:mod:`repro.network.solver`) exact: it re-solves
only dirty components and reuses the others' cached rates, which equal
a fresh solve bit-for-bit because each component's arithmetic is
independent.

The function is pure — it is the analytical heart of the network model
and is tested exhaustively (including with hypothesis) in
``tests/network/test_fairness.py``,
``tests/network/test_fairness_incremental.py`` and
``tests/network/test_fill_differential.py``; the last compares the
filling loop bit-for-bit with the plain rescanning loop it replaced,
kept in ``tests/network/fill_reference.py``.
"""

import math

__all__ = ["FlowDemand", "flow_components", "max_min_allocation"]

_EPS = 1e-9


class FlowDemand:
    """Input record for the allocator: a flow id, its links, and a cap."""

    __slots__ = ("flow_id", "links", "cap")

    def __init__(self, flow_id, links, cap=float("inf")):
        if not cap >= 0:
            # `not >=` rather than `<` so NaN caps are rejected too.
            raise ValueError(f"negative or NaN cap {cap}")
        self.flow_id = flow_id
        self.links = tuple(links)
        self.cap = float(cap)

    def __repr__(self):
        return f"<FlowDemand {self.flow_id} over {len(self.links)} links>"


def flow_components(demands):
    """Group demands into connected components over shared links.

    Two demands are connected when they share a link key, directly or
    through a chain of other demands.  Returns a list of demand lists;
    both the components and the demands within each preserve the input
    order, so downstream arithmetic (and its float rounding) is a pure
    function of the input sequence.
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


class _LinkState:
    """One link of a component being water-filled."""

    __slots__ = ("remaining", "live", "users")

    def __init__(self, remaining):
        #: Capacity not yet handed out, bytes/s.
        self.remaining = remaining
        #: Still-active flows over this link.
        self.live = 0
        #: Every flow over this link, in demand order.
        self.users = []


def _fill_component(demands, link_capacity):
    """Water-fill one connected component; returns ``flow_id -> rate``.

    Each round raises every still-active flow by the smallest increment
    that saturates a link or reaches a cap, then freezes the flows on
    saturated links and at their caps.  Its arithmetic depends only on
    the component's demand order and its links' capacities — the
    exactness contract the incremental solver's cache relies on.

    A round costs O(live links + active flows), not a rescan of every
    link's user set: each link keeps a count of its still-active users,
    decremented once per link of each flow that freezes, only links
    with a live user take part in later rounds, and only the users of
    saturated links are looked at for freezing.  The allocations
    themselves live in one shared ``level`` float.  Every active flow
    started at 0.0 and has received exactly the same sequence of
    increments, so its per-flow running sum would hold the very same
    bits; a flow reads ``level`` once, when it freezes.  Increments are
    picked with ``<`` in the same link-then-flow order as ``min`` would
    scan them, so ties (even between signed zeros) resolve the same way.
    """
    active = {}
    for demand in demands:
        active[demand.flow_id] = demand

    # Links in first-appearance order; a demand listing a link twice
    # still counts once against it.
    states = {}
    links_of = {}
    for demand in demands:
        fid = demand.flow_id
        own = []
        for link in dict.fromkeys(demand.links):
            state = states.get(link)
            if state is None:
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
                state = states[link] = _LinkState(capacity)
            state.live += 1
            state.users.append(fid)
            own.append(state)
        links_of[fid] = own
    live = list(states.values())

    allocation = dict.fromkeys(active, 0.0)
    level = 0.0
    while active:
        # Smallest increment that saturates a link or exhausts a cap.
        increment = math.inf
        for state in live:
            share = state.remaining / state.live
            if share < increment:
                increment = share
        for demand in active.values():
            headroom = demand.cap - level
            if headroom < increment:
                increment = headroom
        if math.isinf(increment):
            # Only capless flows over infinite links remain (impossible
            # now that infinite capacities are rejected); freeze them at
            # infinity rather than loop forever.
            for fid in active:
                allocation[fid] = math.inf
            break
        if increment < 0.0:
            increment = 0.0

        # Apply the increment, drain link budgets and note saturation.
        level += increment
        saturated = set()
        for state in live:
            left = state.remaining - increment * state.live
            state.remaining = left
            if left <= _EPS:
                saturated.update(state.users)

        # Freeze flows on saturated links and flows at their caps, in
        # the active dict's own (insertion) order.
        freezing = [
            fid for fid, demand in active.items()
            if fid in saturated or level >= demand.cap - _EPS
        ]
        if not freezing:
            # Numerical guard: increment was ~0 without freezing anyone;
            # freeze the tightest flow (the first, on ties) to guarantee
            # termination.
            tight = tightest = None
            for fid, demand in active.items():
                slack = min(
                    [states[link].remaining for link in demand.links] +
                    [demand.cap - level]
                )
                if tight is None or slack < tightest:
                    tight, tightest = fid, slack
            freezing.append(tight)
        for fid in freezing:
            del active[fid]
            allocation[fid] = level
            for state in links_of[fid]:
                state.live -= 1
        live = [state for state in live if state.live]

    return allocation


def max_min_allocation(demands, link_capacity):
    """Compute max-min fair rates.

    Parameters
    ----------
    demands:
        Iterable of :class:`FlowDemand`.  A demand whose ``links`` tuple
        is empty (loopback) simply receives its cap.
    link_capacity:
        Mapping from link key to available capacity in bytes/s.
        Capacities must be finite and non-negative.

    Returns
    -------
    dict
        ``flow_id -> rate`` in bytes/s.
    """
    demands = list(demands)
    rates = {}
    routed = []
    for demand in demands:
        if demand.flow_id in rates:
            raise ValueError(f"duplicate flow id {demand.flow_id!r}")
        if not demand.links:
            rates[demand.flow_id] = demand.cap
        else:
            rates[demand.flow_id] = 0.0  # placeholder, keeps dup check
            routed.append(demand)

    for component in flow_components(routed):
        rates.update(_fill_component(component, link_capacity))
    return rates
