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
  capacity the last solve used and the link's class.
* **Link classes.**  Live links used by exactly the same flows form one
  :class:`_LinkClass`, which holds those flows in insertion order; each
  flow keeps the tuple of its distinct classes.  A GridFTP stream
  crosses about nine links (route hops plus disk and CPU channels), and
  most of them carry exactly the same streams: the client's edge and
  sink channels, the replica's source channels, the private hops of one
  replica→client pair.  :meth:`~IncrementalMaxMinSolver.add_flow`
  splits every class the new flow covers only partly (a class it covers
  whole keeps its object); :meth:`~IncrementalMaxMinSolver.remove_flow`
  merges a class with the class that now has the same flows, which is
  among the classes of any one of those flows, so no global index is
  needed.
* **Components.**  Each class points at its component, which holds its
  flows in insertion order.  Adding a flow merges the components its
  links touch; removing one marks its component for a split, which runs
  once, at the next solve, as a walk that visits each class at most
  once.
* **Dirty components.**  A component is re-solved when its membership
  changed or when one of its link capacities differs (``!=``) from the
  one its last solve used.  :meth:`~IncrementalMaxMinSolver.rates` is
  handed the capacities of the links that may have changed (the flow
  network passes those that reported a change or just became live) and
  compares only those; a link left out keeps its stored capacity, and
  a newly live link must be in the map.  NaN never equals itself, so a
  NaN capacity always counts as a change and always raises.

Every other component keeps its rates, and those are exactly what a
fresh solve would give: a component's arithmetic is a pure function of
its demand order (insertion order), its caps and its link capacities,
and all three are unchanged.  The water-filling kernel,
:func:`_fill_component`, fills classes instead of links and returns the
rates filling link by link would give, bit for bit (its docstring says
why).  :func:`tests.network.fairness.max_min_allocation`, the test-side
allocator, is this solver run once from scratch, so there is no
second implementation to drift.

``tests/network/test_fairness_incremental.py`` compares random churn
against fresh solves with ``==``, and ``tests/network/test_solver_churn.py``
compares each component bit-for-bit with the plain link-by-link
reference loop and checks the classes after every step.
"""

import math
from itertools import chain, count
from operator import attrgetter

__all__ = ["IncrementalMaxMinSolver"]

_EPS = 1e-9

#: The probe's flow id inside a probe solve.
_PROBE = "__probe__"

_by_seq = attrgetter("seq")
_by_cap = attrgetter("cap")
_key = attrgetter("key")


class _FlowState:
    """A flow as the solver keeps it between solves."""

    __slots__ = ("flow_id", "links", "cap", "classes", "seq", "mark")

    def __init__(self, flow_id, links, cap, seq):
        if not cap >= 0:
            # `not >=` rather than `<` so NaN caps are rejected too.
            raise ValueError(f"negative or NaN cap {cap}")
        self.flow_id = flow_id
        self.links = tuple(links)
        self.cap = float(cap)
        #: The distinct :class:`_LinkClass` entries of its links (a
        #: demand listing a link twice counts once against it).
        self.classes = ()
        #: Insertion sequence number: orders demands inside a component.
        self.seq = seq
        #: Stamp of the last split walk that reached this flow.
        self.mark = 0


class _LinkState:
    """One live link, kept between solves."""

    __slots__ = ("key", "capacity", "cls")

    def __init__(self, key):
        self.key = key
        #: Capacity the last solve used.  NaN until first read, so the
        #: first read always counts as a change (and a newly live link
        #: left out of :meth:`IncrementalMaxMinSolver.rates`' map is
        #: caught).
        self.capacity = math.nan
        #: The :class:`_LinkClass` this link belongs to.
        self.cls = None


class _LinkClass:
    """Live links used by exactly the same flows."""

    __slots__ = ("members", "users", "component", "remaining", "live",
                 "mark")

    def __init__(self, members, users, component):
        #: The :class:`_LinkState` of each member link.
        self.members = members
        for state in members:
            state.cls = self
        #: flow id -> :class:`_FlowState` of every flow over the
        #: members, in insertion order.
        self.users = users
        #: The :class:`_Component` this class belongs to.
        self.component = component
        #: Fill scratch: the tightest member's capacity not yet handed
        #: out, bytes/s, and the number of still-active users.
        self.remaining = 0.0
        self.live = 0
        #: Stamp of the last fill or split walk that visited this class.
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


def _fill_component(flows, classes):
    """Water-fill one connected component; returns ``flow_id -> rate``.

    ``flows`` are the component's :class:`_FlowState` records in
    insertion order; ``classes`` are the :class:`_LinkClass` of every
    link they use, each with ``remaining`` set to the capacity of its
    tightest member and ``users`` holding exactly the component's flows
    over it.  The returned dict is in ``flows`` order.

    Each round raises every still-active flow by the smallest increment
    that saturates a link or reaches a cap, then freezes the flows on
    saturated links and at their caps.  A round costs O(live classes +
    flows it freezes):

    * each class keeps a count of its still-active users, decremented
      once per class of each freezing flow, and only classes with a
      live user take part in later rounds;
    * only the users of classes that saturated are looked at, and a
      saturated class loses every active user, so each class's users
      are scanned at most once per fill;
    * caps are checked along the flows sorted by cap (stable, so in
      insertion order among equal caps).  ``level >= cap - _EPS`` is
      monotone in the cap, so the flows at their cap are a prefix of
      the still-active ones in that order, and the first still-active
      flow past it has the smallest headroom;
    * every active flow started at 0.0 and has received exactly the
      same increments, so the allocations live in one shared ``level``
      float, which a flow reads once, when it freezes.

    **Why a class gives the link-by-link bits.**  Filling link by link
    (``tests/network/fill_reference.py``), every member of a class has
    the same active users in every round, so each receives the same
    drain, ``increment * live``.  Float subtraction and division round
    monotonically: if ``a <= b`` then ``a - d <= b - d`` and
    ``a / n <= b / n`` after rounding.  So the member that starts
    tightest stays tightest, and its budget is the class's:

    * the least share over the members is the tightest member's share,
      in value, so every increment is unchanged;
    * a member saturates (``remaining <= _EPS``) only if the tightest
      one does, and then all of them freeze the same flows;
    * the termination guard's smallest slack over a flow's links equals
      the smallest over its classes' budgets.

    Likewise the least headroom over the active flows equals
    ``min(cap) - level`` in value.  Only the choice among equal values
    can differ, which can flip the sign of a zero in ``remaining`` but
    never in ``level``: ``level`` starts at +0.0 and ``x + -0.0 == x``,
    and every rate is a ``level``.
    """
    active = {}
    for flow in flows:
        active[flow.flow_id] = flow
    allocation = dict.fromkeys(active, 0.0)
    for cls in classes:
        cls.live = len(cls.users)
    live = classes
    capped = sorted(flows, key=_by_cap)
    ncapped = len(capped)
    # Every flow before capped[at] is frozen.
    at = 0
    level = 0.0
    # The first round's smallest class share and smallest headroom; each
    # later round finds its own after freezing.
    least_share = math.inf
    for cls in live:
        share = cls.remaining / cls.live
        if share < least_share:
            least_share = share
    least_headroom = capped[0].cap - level
    while active:
        # Smallest increment that saturates a link or exhausts a cap.
        increment = least_share
        if least_headroom < increment:
            increment = least_headroom
        if increment < 0.0:
            increment = 0.0

        # Apply the increment, drain class budgets and note saturation.
        level += increment
        saturated = []
        for cls in live:
            left = cls.remaining - increment * cls.live
            cls.remaining = left
            if left <= _EPS:
                saturated.append(cls)

        # Freeze the users of saturated classes, then the flows at
        # their caps.
        before = len(active)
        for cls in saturated:
            for fid, flow in cls.users.items():
                if fid in active:
                    del active[fid]
                    allocation[fid] = level
                    for other in flow.classes:
                        other.live -= 1
        while at < ncapped:
            flow = capped[at]
            fid = flow.flow_id
            if fid in active:
                if level < flow.cap - _EPS:
                    break
                del active[fid]
                allocation[fid] = level
                for other in flow.classes:
                    other.live -= 1
            at += 1
        if len(active) == before:
            # Numerical guard: increment was ~0 without freezing anyone;
            # freeze the tightest flow (the first, on ties) to guarantee
            # termination.
            tight = tightest = None
            for fid, flow in active.items():
                slack = min(
                    [cls.remaining for cls in flow.classes] +
                    [flow.cap - level]
                )
                if tight is None or slack < tightest:
                    tight, tightest = fid, slack
            allocation[tight] = level
            for other in active.pop(tight).classes:
                other.live -= 1
        if not active:
            break

        # The next round's smallest headroom is the first still-active
        # flow's in cap order; drop classes without an active user, the
        # others give its smallest share.
        while capped[at].flow_id not in active:
            at += 1
        least_headroom = capped[at].cap - level
        kept = []
        least_share = math.inf
        for cls in live:
            if cls.live:
                kept.append(cls)
                share = cls.remaining / cls.live
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
    then asks for :meth:`rates` with the fresh capacities of the links
    that changed or just became live whenever the flow set or the
    environment changed, and for :meth:`class_loads` to write back what
    the links carry.  Link keys are any hashable; the flow network uses
    the link objects themselves.
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
        #: The classes the last :meth:`rates` re-solved, for
        #: :meth:`class_loads`.
        self._solved = []
        #: Link entries created since the last :meth:`rates`, whose
        #: capacity its map must give.
        self._fresh = []
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
                self._fresh.append(state)
            else:
                touched[state.cls.component] = None
            states.append(state)
        if not states:
            self._loose[flow_id] = flow.cap
            return
        self._attach(flow, states)
        component = self._join(flow, list(touched))
        for cls in flow.classes:
            cls.component = component
        self._dirty[component] = None

    def _attach(self, flow, states):
        """Make ``flow`` a user of ``states``, its distinct links.

        A class whose members ``flow`` covers only partly splits: the
        covered members move to a new class.  Links without a class yet
        form one new class.
        """
        covered = {}
        for state in states:
            covered.setdefault(state.cls, []).append(state)
        classes = []
        for cls, members in covered.items():
            if cls is None:
                cls = _LinkClass(members, {}, None)
            elif len(members) < len(cls.members):
                users = cls.users
                part = _LinkClass(members, dict(users), cls.component)
                cls.members = [
                    state for state in cls.members if state.cls is cls
                ]
                for user in users.values():
                    user.classes += (part,)
                cls = part
            cls.users[flow.flow_id] = flow
            classes.append(cls)
        flow.classes = tuple(classes)

    def _join(self, flow, touched):
        """The component ``flow`` lands in, merging ``touched`` ones."""
        if not touched:
            self._components += 1
            return _Component({flow.flow_id: flow})
        component = touched[0]
        if len(touched) > 1:
            # Keep the largest component's object and repoint the
            # others' classes at it; members stay in insertion order.
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
                    for cls in member.classes:
                        cls.component = component
            component.flows = {member.flow_id: member for member in merged}
            self._components -= len(touched) - 1
        component.flows[flow.flow_id] = flow
        return component

    def remove_flow(self, flow_id):
        """Drop a departed flow; its component splits lazily."""
        flow = self._flows.pop(flow_id)
        if not flow.classes:
            self._loose.pop(flow_id, None)
            return
        component = flow.classes[0].component
        del component.flows[flow_id]
        shared, emptied = self._detach(flow)
        link_states = self._links
        for cls in emptied:
            for state in cls.members:
                del link_states[state.key]
        if component.flows:
            if shared > 1:
                # The flow may have bridged parts of its component.
                component.split = True
            self._dirty[component] = None
        else:
            self._dirty.pop(component, None)
            self._components -= 1

    def _detach(self, flow):
        """Remove ``flow`` from its classes.

        A class left with the same flows as another class merges into
        it.  Returns how many of the classes still have flows, and the
        classes left with none.
        """
        fid = flow.flow_id
        shared = 0
        emptied = []
        for cls in flow.classes:
            users = cls.users
            del users[fid]
            if not users:
                emptied.append(cls)
                continue
            shared += 1
            # A class with exactly these flows is one of the classes of
            # each of them; it never held ``flow``, or the two classes
            # would have had the same flows before.
            for other in next(iter(users.values())).classes:
                if (other is not cls and len(other.users) == len(users)
                        and other.users.keys() == users.keys()):
                    self._merge(cls, other)
                    break
        return shared, emptied

    @staticmethod
    def _merge(cls, other):
        """Fold two classes with the same flows into one."""
        if len(cls.members) < len(other.members):
            cls, other = other, cls
        for state in other.members:
            state.cls = cls
        cls.members += other.members
        for user in cls.users.values():
            user.classes = tuple(c for c in user.classes if c is not other)

    def invalidate(self):
        """Mark every component for re-solving.

        Not needed for correctness — changed capacities passed to
        :meth:`rates` are detected on their own — but lets callers pin
        down behaviour in tests.
        """
        for state in self._links.values():
            self._dirty[state.cls.component] = None

    # -- solving -----------------------------------------------------------

    def rates(self, link_capacity):
        """Re-solve what changed; returns the rates that may have moved.

        ``link_capacity`` maps link key -> available capacity.  It must
        cover every link that became live since the previous call (a
        missing one raises :class:`KeyError`) and every live link whose
        capacity changed; a live link left out keeps the capacity
        stored at its last read, and a key of no live link is ignored,
        so a map of every link still works.  Each given capacity that
        differs from the stored one re-solves exactly the component it
        touches.

        Returns ``flow_id -> rate`` for every flow of each re-solved
        component (each in insertion order) and for every linkless flow
        added since the previous call (it receives its cap).  Every
        other live flow's rate is unchanged since the previous call.
        """
        dirty = self._dirty
        link_states = self._links
        for key, capacity in link_capacity.items():
            state = link_states.get(key)
            if state is not None and capacity != state.capacity:
                state.capacity = _checked(capacity, key)
                dirty[state.cls.component] = None
        if self._fresh:
            for state in self._fresh:
                # NaN only if never read, and only a live entry counts
                # (its flows may have left again since).
                if (state.capacity != state.capacity
                        and link_states.get(state.key) is state):
                    raise KeyError(state.key)
            self._fresh = []
        for component in [c for c in dirty if c.split]:
            self._split(component)

        rates = self._loose
        self._loose = {}
        self._dirty = {}
        solved = []
        for component in dirty:
            flows = component.flows.values()
            classes = self._budgeted(flows)
            rates.update(_fill_component(flows, classes))
            solved += classes
        self._solved = solved
        self.solves += len(dirty)
        self.cache_hits += self._components - len(dirty)
        return rates

    def class_loads(self, rates):
        """``(link keys, load)`` for every link class the last
        :meth:`rates` call re-solved; ``rates`` is what that call
        returned, and ``link keys`` an iterator over the class's keys.

        A link's load is the sum of its flows' rates, added in insertion
        order from 0.0.  The members of a class have the same flows in
        the same order, so the sum is taken once per class and holds
        for each of its keys.
        """
        for cls in self._solved:
            load = 0.0
            for fid in cls.users:
                load += rates[fid]
            yield map(_key, cls.members), load

    def _budgeted(self, flows, fresh=None):
        """The classes ``flows`` use, in first-appearance order.

        Each class's ``remaining`` is set to its tightest member's
        capacity (the first member's, on ties): the stored one, or
        ``fresh(key)`` when given (probes read capacities anew without
        disturbing the stored ones), which reads and checks every
        member.
        """
        stamp = next(self._stamps)
        classes = []
        for flow in flows:
            for cls in flow.classes:
                if cls.mark != stamp:
                    cls.mark = stamp
                    budget = math.inf
                    for state in cls.members:
                        capacity = (
                            state.capacity if fresh is None
                            else fresh(state.key)
                        )
                        if capacity < budget:
                            budget = capacity
                    cls.remaining = budget
                    classes.append(cls)
        return classes

    def _split(self, component):
        """Break ``component`` into its connected pieces.

        One walk from each not-yet-reached member, in insertion order,
        visiting every class and every flow once.  The first piece keeps
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
                for cls in pending.pop().classes:
                    if cls.mark == stamp:
                        continue
                    cls.mark = stamp
                    cls.component = piece
                    for user in cls.users.values():
                        if user.mark != stamp:
                            user.mark = stamp
                            pending.append(user)
        if pieces > 1:
            self._components += pieces - 1
            component.flows = {}
            for fid, flow in flows.items():
                flow.classes[0].component.flows[fid] = flow

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
        """:meth:`probe_rate` for a probe that joins live flows.

        The probe joins the classes of its links as a flow would, for
        the one fill, and leaves them as a departing flow would, so the
        classes it split merge back.
        """
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
        self._attach(probe, states)
        flows.append(probe)
        try:
            rates = _fill_component(flows, self._budgeted(flows, fresh))
        finally:
            self._detach(probe)
        self.probe_solves += 1
        return rates[_PROBE]

    def _touched(self, keys):
        """Components holding any of the link ``keys``, in key order."""
        link_states = self._links
        touched = {}
        for key in keys:
            state = link_states.get(key)
            if state is not None:
                touched[state.cls.component] = None
        return list(touched)
