"""Flow-model invariants, checked after every reallocation.

:class:`repro.network.flow.FlowNetwork` re-solves only the fair-share
components a change touched and writes rates and link allocations for
those alone.  This oracle re-derives the physics from scratch after
every ``FlowNetwork._reallocate`` and records a :class:`FlowViolation`
when the network disagrees:

* **link capacity** — the rates of the live flows over a live link
  (each flow counted once per distinct link) sum to at most its
  available capacity, within a relative :data:`CAPACITY_EPS`;
* **allocation** — a live link's ``allocated`` is exactly the sum of
  its flows' rates in flow order, which is what a full recomputation
  writes;
* **stale capacity** — a live link's capacity as the solver stored it
  is ``==`` its fresh ``available_capacity``, unless the link reported
  a change the next reallocation has yet to read.  Links report their
  capacity changes instead of being polled, so a change that was not
  reported leaves the solver with the old value;
* **remaining** — no live flow has negative ``remaining`` bytes;
* **delivery** — a flow that completed delivered its ``nbytes`` within
  the network's completion slack.  Delivered bytes are the checker's
  own integral of each flow's rate between reallocations, not the
  network's ``remaining``.

It only reads simulation state, so trace digests are the same with it
armed, and it is off unless installed.  ``pytest --sanitize`` installs
it around every test, next to the sim-time watchdog (see
``tests/conftest.py``)::

    guard = install_flow_invariants()
    try:
        ... run code that moves flows ...
    finally:
        guard.uninstall()
    assert not guard.violations()

It lives under ``tests/`` because only the test suite uses it.
"""

import weakref
from dataclasses import dataclass

from repro.network.flow import _COMPLETION_SLACK, FlowNetwork

__all__ = [
    "CAPACITY_EPS",
    "FlowInvariantGuard",
    "FlowViolation",
    "check_flow_invariants",
    "install_flow_invariants",
]

#: Relative slack on link capacity (float rounding of the fill).
CAPACITY_EPS = 1e-9
#: Relative slack on delivered bytes (the checker sums what the network
#: subtracts, so the two round differently).
_DELIVERY_EPS = 1e-9


@dataclass(frozen=True)
class FlowViolation:
    """One breach of a flow-model invariant."""

    kind: str
    time: float
    detail: str

    def __str__(self):
        return f"[{self.kind}] t={self.time!r}: {self.detail}"


class _Ledger:
    """What the checker knows about one network between checks."""

    def __init__(self, time, seen):
        #: Time of the previous check.
        self.time = time
        #: flow id -> rate at the previous check (live flows only).
        self.rates = {}
        #: flow id -> bytes delivered up to the previous check.
        self.delivered = {}
        #: ``len(network.completed)`` at the previous check.
        self.seen = seen


def check_flow_invariants(network, ledger=None):
    """Check ``network`` now; returns the violations found.

    Pass the same ``ledger`` (see :class:`FlowInvariantGuard`) on every
    call to also check delivery; without one only the instantaneous
    invariants are checked.
    """
    now = network.sim.now
    violations = []

    def record(kind, detail):
        violations.append(FlowViolation(kind, now, detail))

    totals = {}
    sums = {}
    links = {}
    for flow in network._flows.values():
        if flow.remaining < 0.0:
            record("negative-remaining",
                   f"flow #{flow.id} has {flow.remaining!r} bytes left")
        for link in flow.links:
            links[link.key] = link
            sums[link.key] = sums.get(link.key, 0.0) + flow.rate
        for link in dict.fromkeys(flow.links):
            totals[link.key] = totals.get(link.key, 0.0) + flow.rate
    stored = network._solver._links
    pending = network._changed
    for key, link in links.items():
        capacity = link.available_capacity
        if link not in pending and stored[link].capacity != capacity:
            record("stale-capacity",
                   f"link {key!r} has {capacity!r} B/s available, the "
                   f"solver still uses {stored[link].capacity!r} B/s")
        if not totals[key] <= capacity + capacity * CAPACITY_EPS:
            record("over-capacity",
                   f"link {key!r} carries {totals[key]!r} B/s over "
                   f"{capacity!r} B/s available")
        if link.allocated != sums[key]:
            record("allocation",
                   f"link {key!r} allocated {link.allocated!r} B/s, its "
                   f"flows' rates sum to {sums[key]!r}")

    if ledger is not None:
        _check_delivery(network, ledger, now, record)
    return violations


def _check_delivery(network, ledger, now, record):
    """Integrate rates since the previous check; check completions."""
    dt = now - ledger.time
    delivered = ledger.delivered
    done = network.completed[ledger.seen:]
    by_id = {flow.id: flow for flow in done}
    for fid, rate in ledger.rates.items():
        flow = network._flows.get(fid) or by_id.get(fid)
        if flow is None:
            # Aborted: nothing to deliver.
            del delivered[fid]
            continue
        if dt > 0.0:
            delivered[fid] += min(flow.nbytes - delivered[fid], rate * dt)
    for flow in done:
        got = delivered.pop(flow.id, None)
        if got is None:
            # Never live at a check (zero-byte flows complete at start).
            continue
        if not flow.nbytes - got <= (
            _COMPLETION_SLACK + flow.nbytes * _DELIVERY_EPS
        ):
            record("short-delivery",
                   f"flow #{flow.id} completed with {got!r} of "
                   f"{flow.nbytes!r} bytes delivered")
    ledger.seen = len(network.completed)
    ledger.time = now
    ledger.rates = {}
    for fid, flow in network._flows.items():
        ledger.rates[fid] = flow.rate
        if fid not in delivered:
            # A flow first seen: new ones have delivered nothing yet,
            # ones already live when the guard was installed start from
            # the network's own count.
            delivered[fid] = flow.nbytes - flow.remaining


class FlowInvariantGuard:
    """Checks every :class:`FlowNetwork` after each reallocation while
    installed."""

    def __init__(self):
        self.checks = 0
        self._violations = []
        self._ledgers = weakref.WeakKeyDictionary()
        self._original = None

    def __repr__(self):
        state = "armed" if self._original is not None else "idle"
        return (
            f"<FlowInvariantGuard {state}: {self.checks} checks, "
            f"{len(self._violations)} violations>"
        )

    def install(self):
        if self._original is not None:
            raise RuntimeError("flow invariant guard already installed")
        original = self._original = FlowNetwork._reallocate
        guard = self

        def checked_reallocate(network):
            original(network)
            guard.check(network)

        FlowNetwork._reallocate = checked_reallocate
        return self

    def uninstall(self):
        if self._original is None:
            return
        FlowNetwork._reallocate = self._original
        self._original = None

    def check(self, network):
        """Check ``network`` now (the installed hook calls this)."""
        self.checks += 1
        ledger = self._ledgers.get(network)
        if ledger is None:
            ledger = self._ledgers[network] = _Ledger(
                network.sim.now, len(network.completed)
            )
        self._violations.extend(check_flow_invariants(network, ledger))

    def violations(self):
        return list(self._violations)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False


def install_flow_invariants():
    """Install and return a :class:`FlowInvariantGuard`."""
    return FlowInvariantGuard().install()
