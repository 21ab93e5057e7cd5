"""Dynamic flow management on top of the max-min allocator.

:class:`FlowNetwork` tracks the set of in-flight flows.  Whenever the set
changes — a flow starts, finishes, is aborted, or the environment shifts
(cross-traffic, disk load) — it settles the bytes every flow moved so
far, asks the :class:`~repro.network.solver.IncrementalMaxMinSolver`
(which mirrors the live flow set) for new rates, and reschedules the
earliest completion.

Capacity changes are reported, not polled.  A link that is live here
(some live flow crosses it) lists this network in its ``networks``
tuple, and every change to its available capacity (a
:class:`~repro.network.link.Link`'s background utilisation or up/down
state, a :class:`~repro.hosts.reslink.ResourceChannel` owner's load or
bandwidth) calls :meth:`FlowNetwork.capacity_changed`.  A reallocation
hands the solver only the capacities of links that reported since the
last one or just became live; every other live link has exactly the
capacity the solver already stored.  A link live on two networks (a
test reference built over the same topology) reports to both.

The solver re-solves only the connected components the change touched
and returns only their rates, so the network writes ``flow.rate`` and
``link.allocated`` for those flows and links alone; every other flow's
rate is exactly what a full solve would give it again.  Settling stays
eager (every live flow, at every change) and the wakeup is the minimum
over every live flow's completion time, so each flow's byte count is
rounded exactly as a full recomputation would round it.  A rebalance
with no live flow only moves the settle point.

Two modelling points worth noting:

* A flow's path may include *resource links* that are not part of the
  network topology: the source disk's read channel, the destination
  disk's write channel, a CPU budget.  The allocator treats them exactly
  like network links, which is how a busy disk at the replica site slows
  a GridFTP fetch (the paper's reason for including I/O state in the
  cost model).
* Each flow may carry a static rate ``cap`` — for transfers this is the
  per-stream TCP limit from :class:`repro.network.tcp.TCPModel`.

``pytest --sanitize`` checks the model's physical invariants after
every reallocation (``tests/network/flow_invariants.py``).
"""

import itertools
import math

from repro.network.routing import Router
from repro.network.solver import IncrementalMaxMinSolver

__all__ = ["Flow", "FlowNetwork"]

#: A flow is complete once this few bytes remain (absorbs float error).
_COMPLETION_SLACK = 1e-3


class Flow:
    """One in-flight unidirectional data flow."""

    __slots__ = ("id", "network", "path", "nbytes", "remaining", "cap",
                 "label", "links", "rate", "started_at", "completed_at",
                 "aborted", "done")

    _ids = itertools.count(1)

    def __init__(self, network, path, nbytes, cap, extra_links, label):
        self.id = next(Flow._ids)
        self.network = network
        self.path = path
        self.nbytes = float(nbytes)
        self.remaining = float(nbytes)
        self.cap = float(cap)
        self.label = label
        #: All capacity constraints this flow occupies, each once:
        #: routed network links plus caller-supplied resource links.  A
        #: transfer from a host to itself lists the host's disk and CPU
        #: channels as both its source and its sink; the solver
        #: counts such a link once against its capacity, so its
        #: ``allocated`` and ``bytes_carried`` count the flow once too.
        self.links = tuple(dict.fromkeys((*path.links, *extra_links)))
        self.rate = 0.0
        self.started_at = network.sim.now
        self.completed_at = None
        self.aborted = False
        #: Triggers with the flow itself on completion; fails on abort.
        self.done = network.sim.event()

    def __repr__(self):
        state = "done" if self.completed_at is not None else (
            "aborted" if self.aborted else "active"
        )
        return (
            f"<Flow #{self.id} {self.path.src}->{self.path.dst} "
            f"{self.remaining:.0f}/{self.nbytes:.0f}B {state}>"
        )

    @property
    def is_active(self):
        return self.completed_at is None and not self.aborted

    @property
    def elapsed(self):
        """Wall-clock (simulated) time since the flow started."""
        end = self.completed_at
        if end is None:
            end = self.network.sim.now
        return end - self.started_at

    @property
    def transferred(self):
        return self.nbytes - self.remaining

    def eta(self):
        """Predicted completion time at the current rate (inf if stalled)."""
        if self.rate <= 0.0:
            return math.inf
        return self.network.sim.now + self.remaining / self.rate


class FlowNetwork:
    """Manages flows over a topology with max-min fair sharing."""

    def __init__(self, sim, topology, router=None):
        self.sim = sim
        self.topology = topology
        self.router = router or Router(topology)
        self._flows = {}
        self._last_settle = sim.now
        self._wakeup_version = 0
        #: Incremental fair-share solver mirroring the live flow set
        #: (see :mod:`repro.network.solver`).
        self._solver = IncrementalMaxMinSolver()
        #: key -> [link, refcount] over live flows' links: the live
        #: link set.  The solver is keyed by the link objects
        #: themselves.
        self._links_by_key = {}
        #: Live links whose capacity the solver has not read since they
        #: became live or reported a change, in report order.
        self._changed = {}
        #: Completed-flow log (diagnostics and tests).
        self.completed = []

    def __repr__(self):
        return f"<FlowNetwork {len(self._flows)} active flows>"

    @property
    def active_flows(self):
        return list(self._flows.values())

    # -- flow lifecycle ---------------------------------------------------

    def start_flow(self, src, dst, nbytes, cap=math.inf, extra_links=(),
                   label=None):
        """Begin moving ``nbytes`` from ``src`` to ``dst``.

        Returns the :class:`Flow`; wait on ``flow.done`` for completion.
        ``extra_links`` are additional Link-like capacity constraints
        (disk channels etc.); ``cap`` is the flow's own rate ceiling.
        """
        if nbytes < 0:
            raise ValueError(f"negative flow size {nbytes}")
        path = self.router.path(src, dst)
        flow = Flow(self, path, nbytes, cap, extra_links, label)
        if nbytes == 0:
            flow.completed_at = self.sim.now
            self.completed.append(flow)
            flow.done.succeed(flow)
            return flow
        self._settle()
        self._flows[flow.id] = flow
        self._solver.add_flow(flow.id, flow.links, flow.cap)
        self._register_links(flow)
        self._reallocate()
        return flow

    def abort_flow(self, flow, cause=None):
        """Abort an active flow; its ``done`` event fails."""
        if not flow.is_active:
            return
        self._settle()
        flow.aborted = True
        del self._flows[flow.id]
        self._solver.remove_flow(flow.id)
        self._unregister_links(flow)
        for link in flow.links:
            link.allocated = 0.0
        flow.done.fail(FlowAborted(flow, cause))
        self._reallocate()

    def rebalance(self):
        """Settle and re-solve now, after an external change.

        Links report their own capacity changes
        (:meth:`capacity_changed`), and the next reallocation reads
        them whatever triggers it; a rebalance makes that happen at the
        time of the change instead of at the next flow start, abort or
        completion.
        """
        if not self._flows:
            # Nothing to settle, solve or wake: only the settle point
            # moves on.
            self._last_settle = self.sim.now
            return
        self._settle()
        self._reallocate()

    # -- what-if probing (used by NWS bandwidth sensors) -------------------

    def probe_rate(self, src, dst, cap=math.inf, path=None):
        """Rate a hypothetical new flow would receive right now.

        This mirrors what an NWS bandwidth probe experiences: it contends
        with real traffic but does not disturb it (probes are small).
        Callers that already resolved the route pass it as ``path`` to
        skip the lookup (a bandwidth sensor resolves its own once per
        topology version).
        """
        if path is None:
            path = self.router.path(src, dst)
        links = path.links
        if not links:
            return cap
        return self._solver.probe_rate(
            [(link, link.available_capacity) for link in links],
            cap, _capacity_of,
        )

    def capacity_changed(self, link):
        """Note that live ``link``'s available capacity may have moved.

        Links call this on every network in their ``networks`` tuple;
        the next reallocation hands the solver the link's fresh
        capacity.
        """
        self._changed[link] = None

    # -- internals ----------------------------------------------------------

    def _register_links(self, flow):
        for link in flow.links:
            entry = self._links_by_key.get(link.key)
            if entry is None:
                self._links_by_key[link.key] = [link, 1]
                # Newly live: read at the next reallocation, and heard
                # from on every change.
                link.networks += (self,)
                self._changed[link] = None
            else:
                # The registry is the live link set: one key must name
                # one link object (directed links and resource channels
                # never share a key).
                assert entry[0] is link, f"two links share key {link.key!r}"
                entry[1] += 1

    def _unregister_links(self, flow):
        for link in flow.links:
            entry = self._links_by_key[link.key]
            entry[1] -= 1
            if not entry[1]:
                del self._links_by_key[link.key]
                link.networks = tuple(
                    network for network in link.networks
                    if network is not self
                )
                self._changed.pop(link, None)

    def _settle(self):
        """Credit bytes moved since the last settle point."""
        now = self.sim.now
        dt = now - self._last_settle
        self._last_settle = now
        if dt <= 0.0:
            return
        for flow in self._flows.values():
            moved = min(flow.remaining, flow.rate * dt)
            flow.remaining -= moved
            for link in flow.links:
                link.bytes_carried += moved

    def _reallocate(self):
        """Re-solve what changed, write those rates and link
        allocations, and reschedule the next completion."""
        # Complete any flows that have drained.
        finished = [
            flow for flow in self._flows.values()
            if flow.remaining <= _COMPLETION_SLACK
        ]
        for flow in finished:
            flow.remaining = 0.0
            flow.completed_at = self.sim.now
            del self._flows[flow.id]
            self._solver.remove_flow(flow.id)
            self._unregister_links(flow)
            self.completed.append(flow)
            flow.done.succeed(flow)
        # Links used only by just-finished flows drop out of the live
        # set below; zero their allocation so monitors see them idle.
        for flow in finished:
            for link in flow.links:
                link.allocated = 0.0

        # Only the links that reported or just became live are read.
        # Only re-solved components' rates can have moved; every other
        # flow keeps its rate and every other link its allocation.  A
        # link's allocation is its flows' rates summed in flow insertion
        # order, as a full recomputation would sum them.
        changed = self._changed
        self._changed = {}
        solver = self._solver
        rates = solver.rates(
            {link: link.available_capacity for link in changed}
        )
        flows = self._flows
        for fid, rate in rates.items():
            flows[fid].rate = rate
        for links, load in solver.class_loads(rates):
            for link in links:
                link.allocated = load

        self._schedule_wakeup()

    def _schedule_wakeup(self):
        self._wakeup_version += 1
        version = self._wakeup_version
        # The earliest ``Flow.eta()``, inline.
        now = self.sim.now
        eta = math.inf
        for flow in self._flows.values():
            rate = flow.rate
            if rate > 0.0:
                done = now + flow.remaining / rate
                if done < eta:
                    eta = done
        if eta == math.inf:
            return
        delay = max(0.0, eta - now)
        event = self.sim.event()
        event.callbacks.append(lambda _ev: self._on_wakeup(version))
        event._ok = True
        event._value = None
        self.sim.schedule(event, delay=delay)

    def _on_wakeup(self, version):
        if version != self._wakeup_version:
            return  # stale: a rebalance superseded this wakeup
        self._settle()
        self._reallocate()


def _capacity_of(link):
    """Fresh available capacity of a live link (the solver's keys are
    the links themselves)."""
    return link.available_capacity


class FlowAborted(Exception):
    """Raised through ``flow.done`` when a flow is aborted."""

    def __init__(self, flow, cause):
        super().__init__(f"flow #{flow.id} aborted: {cause}")
        self.flow = flow
        self.cause = cause
