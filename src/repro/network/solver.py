"""Incremental max-min fair-share solver.

The flow network needs max-min fair rates after every flow arrival,
departure, abort and capacity change, and the NWS bandwidth sensors ask
what a probe would get many times per simulated second.  Most of those
changes touch one corner of the grid: flows that share no link, directly
or transitively, form independent connected components, and a change
can only move the rates of its own component.

:class:`IncrementalMaxMinSolver` therefore keeps its structure between
calls instead of deriving it again on each one:

* **Link entries.**  One :class:`_LinkState` per live link key holds the
  flows over it, in insertion order, and the capacity the last solve
  used.  :meth:`~IncrementalMaxMinSolver.add_flow` and
  :meth:`~IncrementalMaxMinSolver.remove_flow` update them.
* **Components.**  Each link entry points at its component, which holds
  its flows in insertion order.  Adding a flow merges the components its
  links touch; removing one marks its component for a split, which runs
  once, at the next solve, as a walk that visits each link at most once.
* **Dirty components.**  A component is re-solved when its membership
  changed or when one of its link capacities differs (``!=``) from the
  one its last solve used; :meth:`~IncrementalMaxMinSolver.rates` reads
  each live link's capacity once to find out.  NaN never equals itself,
  so a NaN capacity always counts as a change and always raises.

Every other component keeps its rates, and those are exactly what a
fresh solve would give: a component's arithmetic is a pure function of
its demand order (insertion order), its caps and its link capacities,
and all three are unchanged.  The water-filling kernel,
:func:`_fill_component`, fills straight from the persistent link entries:
it only resets each link's budget and live-user count before filling.
:func:`tests.network.fairness.max_min_allocation`, the test-side
allocator, is this solver run once from scratch, so there is no
second implementation to drift.

``tests/network/test_fairness_incremental.py`` compares random churn
against fresh solves with ``==``, and ``tests/network/test_solver_churn.py``
compares each component bit-for-bit with the plain reference loop.
"""

import math
from itertools import chain, count
from operator import attrgetter

__all__ = ["IncrementalMaxMinSolver"]

_EPS = 1e-9

#: The probe's flow id inside a probe solve.
_PROBE = "__probe__"

_by_seq = attrgetter("seq")


class _FlowState:
    """A flow as the solver keeps it between solves."""

    __slots__ = ("flow_id", "links", "cap", "states", "seq", "mark")

    def __init__(self, flow_id, links, cap, seq):
        if not cap >= 0:
            # `not >=` rather than `<` so NaN caps are rejected too.
            raise ValueError(f"negative or NaN cap {cap}")
        self.flow_id = flow_id
        self.links = tuple(links)
        self.cap = float(cap)
        #: The :class:`_LinkState` of each distinct link, in first-
        #: appearance order (a demand listing a link twice counts once
        #: against it).
        self.states = ()
        #: Insertion sequence number: orders demands inside a component.
        self.seq = seq
        #: Stamp of the last split walk that reached this flow.
        self.mark = 0


class _LinkState:
    """One live link, kept between solves."""

    __slots__ = ("key", "users", "capacity", "component", "remaining",
                 "live", "mark")

    def __init__(self, key):
        self.key = key
        #: flow id -> :class:`_FlowState` of every flow over this link,
        #: in insertion order.
        self.users = {}
        #: Capacity the last solve used.  NaN until first read, so the
        #: first read always counts as a change.
        self.capacity = math.nan
        #: The :class:`_Component` this link belongs to.
        self.component = None
        #: Fill scratch: capacity not yet handed out, bytes/s, and the
        #: number of still-active users.
        self.remaining = 0.0
        self.live = 0
        #: Stamp of the last fill or split walk that visited this link.
        self.mark = 0


def _checked(capacity, key):
    """``capacity`` as a float; rejects negative, NaN and infinite."""
    capacity = float(capacity)
    if not 0.0 <= capacity < math.inf:
        # A NaN would silently poison every rate in the component, an
        # infinite link would spin the filling loop forever for capless
        # flows.
        raise _capacity_error(capacity, key)
    return capacity


def _capacity_error(capacity, key):
    return ValueError(
        f"negative, NaN or infinite capacity {capacity} on {key!r}"
    )


def _fill_component(flows, links):
    """Water-fill one connected component; returns ``flow_id -> rate``.

    ``flows`` are the component's :class:`_FlowState` records in
    insertion order; ``links`` are the :class:`_LinkState` of every
    link they use, in first-appearance order, each with ``remaining``
    already set to the capacity to fill and ``users`` holding exactly
    the component's flows over it.  The returned dict is in ``flows``
    order.

    Each round raises every still-active flow by the smallest increment
    that saturates a link or reaches a cap, then freezes the flows on
    saturated links and at their caps.  A round costs O(live links +
    active flows): each link keeps a count of its still-active users,
    decremented once per link of each flow that freezes, and only links
    with a live user take part in later rounds.  A round makes one pass
    over the live links to drain their budgets, one over the active
    flows to freeze them, and one over the links to drop those left
    without an active user; the next round's smallest link share and
    smallest headroom are found during the last two, scanning with
    ``<`` in the same link-then-flow order as ``min`` would, so ties
    (even between signed zeros) resolve the same way.  The allocations
    themselves live in one shared ``level`` float.  Every active flow
    started at 0.0 and has received exactly the same sequence of
    increments, so its per-flow running sum would hold the very same
    bits; a flow reads ``level`` once, when it freezes.
    """
    active = {}
    for flow in flows:
        active[flow.flow_id] = flow
    for state in links:
        state.live = len(state.users)
    live = links

    allocation = dict.fromkeys(active, 0.0)
    level = 0.0
    # The first round's smallest link share and smallest headroom; each
    # later round finds its own while filtering links and freezing flows.
    least_share = least_headroom = math.inf
    for state in live:
        share = state.remaining / state.live
        if share < least_share:
            least_share = share
    for flow in active.values():
        headroom = flow.cap - level
        if headroom < least_headroom:
            least_headroom = headroom
    while active:
        # Smallest increment that saturates a link or exhausts a cap.
        increment = least_share
        if least_headroom < increment:
            increment = least_headroom
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
        # the active dict's own (insertion) order; the others give the
        # next round's smallest headroom.
        freezing = []
        least_headroom = math.inf
        for fid, flow in active.items():
            if fid in saturated or level >= flow.cap - _EPS:
                freezing.append(fid)
            else:
                headroom = flow.cap - level
                if headroom < least_headroom:
                    least_headroom = headroom
        if not freezing:
            # Numerical guard: increment was ~0 without freezing anyone;
            # freeze the tightest flow (the first, on ties) to guarantee
            # termination.
            tight = tightest = None
            for fid, flow in active.items():
                slack = min(
                    [state.remaining for state in flow.states] +
                    [flow.cap - level]
                )
                if tight is None or slack < tightest:
                    tight, tightest = fid, slack
            freezing.append(tight)
            least_headroom = math.inf
            for fid, flow in active.items():
                if fid != tight:
                    headroom = flow.cap - level
                    if headroom < least_headroom:
                        least_headroom = headroom
        for fid in freezing:
            allocation[fid] = level
            for state in active.pop(fid).states:
                state.live -= 1

        # Drop links without an active user; the others give the next
        # round's smallest share.
        kept = []
        least_share = math.inf
        for state in live:
            if state.live:
                kept.append(state)
                share = state.remaining / state.live
                if share < least_share:
                    least_share = share
        live = kept

    return allocation


class _Component:
    """Flows connected through shared links, in insertion order."""

    __slots__ = ("flows", "split")

    def __init__(self, flows):
        #: flow id -> :class:`_FlowState`.
        self.flows = flows
        #: A member left since the last solve; the rest may have come
        #: apart.
        self.split = False


class IncrementalMaxMinSolver:
    """Max-min fair-share solver that re-solves only what changed.

    The owner (:class:`repro.network.flow.FlowNetwork`) mirrors its live
    flow set into the solver via :meth:`add_flow` / :meth:`remove_flow`,
    then asks for :meth:`rates` with fresh link capacities whenever the
    flow set or the environment changed.
    """

    def __init__(self):
        #: fid -> _FlowState, in flow insertion order.
        self._flows = {}
        #: link key -> _LinkState, for every link a live flow uses.
        self._links = {}
        #: fid -> cap of linkless flows added since the last solve.
        self._loose = {}
        #: Components to re-solve at the next :meth:`rates`, in order.
        self._dirty = {}
        #: Live component count (linkless flows are not components).
        self._components = 0
        #: Insertion sequence numbers, which order flows in a component.
        self._seq = count()
        #: Each fill and each split marks what it visits with a fresh
        #: stamp, so no mark ever needs clearing.
        self._stamps = count(1)
        #: Diagnostics: components re-solved / left untouched by
        #: :meth:`rates`, and probe solves that needed water-filling.
        self.solves = 0
        self.cache_hits = 0
        self.probe_solves = 0

    def __repr__(self):
        return (
            f"<IncrementalMaxMinSolver {len(self._flows)} flows, "
            f"{self.solves} solves, {self.cache_hits} hits>"
        )

    # -- demand-set mirroring ---------------------------------------------

    def add_flow(self, flow_id, links, cap=math.inf):
        """Register a new flow; its component re-solves at the next
        :meth:`rates`."""
        if flow_id in self._flows:
            raise ValueError(f"duplicate flow id {flow_id!r}")
        flow = _FlowState(flow_id, links, cap, next(self._seq))
        self._flows[flow_id] = flow
        link_states = self._links
        states = []
        touched = {}
        for key in dict.fromkeys(flow.links):
            state = link_states.get(key)
            if state is None:
                state = link_states[key] = _LinkState(key)
            else:
                touched[state.component] = None
            state.users[flow_id] = flow
            states.append(state)
        flow.states = tuple(states)
        if not states:
            self._loose[flow_id] = flow.cap
            return
        component = self._join(flow, list(touched))
        for state in states:
            state.component = component
        self._dirty[component] = None

    def _join(self, flow, touched):
        """The component ``flow`` lands in, merging ``touched`` ones."""
        if not touched:
            self._components += 1
            return _Component({flow.flow_id: flow})
        component = touched[0]
        if len(touched) > 1:
            # Keep the largest component's object and repoint the
            # others' links at it; members stay in insertion order.
            for other in touched:
                if len(other.flows) > len(component.flows):
                    component = other
            merged = sorted(
                chain.from_iterable(c.flows.values() for c in touched),
                key=_by_seq,
            )
            for other in touched:
                if other is component:
                    continue
                self._dirty.pop(other, None)
                if other.split:
                    component.split = True
                for member in other.flows.values():
                    for state in member.states:
                        state.component = component
            component.flows = {member.flow_id: member for member in merged}
            self._components -= len(touched) - 1
        component.flows[flow.flow_id] = flow
        return component

    def remove_flow(self, flow_id):
        """Drop a departed flow; its component splits lazily."""
        flow = self._flows.pop(flow_id)
        if not flow.states:
            self._loose.pop(flow_id, None)
            return
        component = flow.states[0].component
        del component.flows[flow_id]
        link_states = self._links
        shared = 0
        for state in flow.states:
            users = state.users
            del users[flow_id]
            if users:
                shared += 1
            else:
                del link_states[state.key]
        if component.flows:
            if shared > 1:
                # The flow may have bridged parts of its component.
                component.split = True
            self._dirty[component] = None
        else:
            self._dirty.pop(component, None)
            self._components -= 1

    def invalidate(self):
        """Mark every component for re-solving.

        Not needed for correctness — capacity changes are detected on
        their own — but lets callers pin down behaviour in tests.
        """
        for state in self._links.values():
            self._dirty[state.component] = None

    # -- solving -----------------------------------------------------------

    def rates(self, link_capacity):
        """Re-solve what changed; returns the rates that may have moved.

        ``link_capacity`` maps link key -> available capacity and must
        cover every registered link; it is read once per live link, so
        capacity changes (chaos, background traffic) are picked up and
        re-solve exactly the components they touch.

        Returns ``flow_id -> rate`` for every flow of each re-solved
        component (each in insertion order) and for every linkless flow
        added since the previous call (it receives its cap).  Every
        other live flow's rate is unchanged since the previous call.
        """
        dirty = self._dirty
        for key, state in self._links.items():
            capacity = link_capacity[key]
            if capacity != state.capacity:
                state.capacity = _checked(capacity, key)
                dirty[state.component] = None
        for component in [c for c in dirty if c.split]:
            self._split(component)

        rates = self._loose
        self._loose = {}
        self._dirty = {}
        for component in dirty:
            rates.update(self._fill(component.flows.values()))
        self.solves += len(dirty)
        self.cache_hits += self._components - len(dirty)
        return rates

    def _fill(self, flows, fresh=None):
        """Water-fill ``flows`` (insertion order) over their links.

        Each link's budget starts at its stored capacity, or at
        ``fresh(key)`` when given (probes read capacities anew without
        disturbing the stored ones).
        """
        stamp = next(self._stamps)
        links = []
        for flow in flows:
            for state in flow.states:
                if state.mark != stamp:
                    state.mark = stamp
                    state.remaining = (
                        state.capacity if fresh is None else fresh(state.key)
                    )
                    links.append(state)
        return _fill_component(flows, links)

    def _split(self, component):
        """Break ``component`` into its connected pieces.

        One walk from each not-yet-reached member, in insertion order,
        visiting every link and every flow once.  The first piece keeps
        the component object; every piece is re-solved.
        """
        component.split = False
        stamp = next(self._stamps)
        flows = component.flows
        piece = None
        pieces = 0
        for flow in flows.values():
            if flow.mark == stamp:
                continue
            piece = component if piece is None else _Component({})
            self._dirty[piece] = None
            pieces += 1
            flow.mark = stamp
            pending = [flow]
            while pending:
                for state in pending.pop().states:
                    if state.mark == stamp:
                        continue
                    state.mark = stamp
                    state.component = piece
                    for user in state.users.values():
                        if user.mark != stamp:
                            user.mark = stamp
                            pending.append(user)
        if pieces > 1:
            self._components += pieces - 1
            component.flows = {}
            for fid, flow in flows.items():
                flow.states[0].component.flows[fid] = flow

    def probe_rate(self, probe_caps, cap, capacity_of):
        """Rate a hypothetical flow over the probed links would receive.

        ``probe_caps`` is a sequence of ``(link_key, capacity)`` pairs
        for the probe's own path, read fresh by the caller;
        ``capacity_of(key)`` reads a fresh capacity for any other link
        of the components the probe would join.

        Solves the probe's would-be component — every component holding
        one of its links, found through the link entries — with the
        probe appended last, exactly as a fresh solve over the live
        flows plus the probe would.  Flows outside it cannot affect the
        result, so this equals that solve bit-for-bit.  A probe that
        touches no live link (an idle corner of the grid — the common
        case for sensor probes) skips the water-filling entirely: a lone
        capped flow's fair share is ``min(cap, min(link capacities))``,
        which is exactly what one filling round computes for it.
        """
        if not probe_caps:
            return float(cap)
        link_states = self._links
        rate = float(cap)
        for key, capacity in probe_caps:
            if key in link_states:
                return self._probe_fill(probe_caps, cap, capacity_of)
            capacity = float(capacity)
            if not 0.0 <= capacity < math.inf:
                raise _capacity_error(capacity, key)
            if capacity < rate:
                rate = capacity
        # `+ 0.0` matches the kernel's `level = 0.0 + increment`
        # (normalises a -0.0 capacity to 0.0).
        return rate + 0.0

    def _probe_fill(self, probe_caps, cap, capacity_of):
        """:meth:`probe_rate` for a probe that joins live flows."""
        capacities = dict(probe_caps)
        link_states = self._links
        touched = self._touched(capacities)
        if any(component.split for component in touched):
            for component in touched:
                if component.split:
                    self._split(component)
            touched = self._touched(capacities)
        if len(touched) == 1:
            flows = list(touched[0].flows.values())
        else:
            flows = sorted(
                chain.from_iterable(c.flows.values() for c in touched),
                key=_by_seq,
            )

        def fresh(key):
            if key in capacities:
                return _checked(capacities[key], key)
            return _checked(capacity_of(key), key)

        probe = _FlowState(_PROBE, capacities, cap, None)
        states = []
        for key in capacities:
            state = link_states.get(key)
            if state is None:
                # An idle link: a scratch entry only the probe uses.
                state = _LinkState(key)
            states.append(state)
        probe.states = tuple(states)
        flows.append(probe)
        for state in states:
            state.users[_PROBE] = probe
        try:
            rates = self._fill(flows, fresh)
        finally:
            for state in states:
                del state.users[_PROBE]
        self.probe_solves += 1
        return rates[_PROBE]

    def _touched(self, keys):
        """Components holding any of the link ``keys``, in key order."""
        link_states = self._links
        touched = {}
        for key in keys:
            state = link_states.get(key)
            if state is not None:
                touched[state.component] = None
        return list(touched)
