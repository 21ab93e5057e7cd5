"""Route invariants, checked on every route a router computes.

:class:`repro.network.routing.Router` walks the stub tree for pairs
inside one tree and resumes a paused search for every other pair.
This oracle wraps ``Router._miss``, the one place a route is computed,
and runs a fresh :class:`tests.network.route_reference.ReferenceRouter`
search for the same pair on the same topology.  It records a
:class:`RouteViolation` when the two disagree: different link
sequences, or one raising where the other does not (or raising a
different exception).  Cache hits return a route already checked.

It only reads the topology, so routes, trace digests and the router's
own counters are the same with it armed, and it is off unless
installed.  ``pytest --sanitize`` installs it around every test, next
to the sim-time watchdog and the flow-model invariants (see
``tests/conftest.py``)::

    guard = install_route_invariants()
    try:
        ... run code that resolves routes ...
    finally:
        guard.uninstall()
    assert not guard.violations()

It lives under ``tests/`` because only the test suite uses it.
"""

from dataclasses import dataclass

from repro.network.routing import NoRouteError, Router
from tests.network.route_reference import ReferenceRouter

__all__ = [
    "RouteInvariantGuard",
    "RouteViolation",
    "install_route_invariants",
]


@dataclass(frozen=True)
class RouteViolation:
    """One route that differs from the reference search's."""

    src: object
    dst: object
    detail: str

    def __str__(self):
        return f"[route] {self.src!r} -> {self.dst!r}: {self.detail}"


def _describe(outcome):
    if isinstance(outcome, type):
        return f"raised {outcome.__name__}"
    return " ".join(repr(link.key) for link in outcome) or "loopback"


class RouteInvariantGuard:
    """Checks every route a :class:`Router` computes while installed."""

    def __init__(self):
        self.checks = 0
        self._violations = []
        self._original = None

    def install(self):
        if self._original is not None:
            raise RuntimeError("route invariant guard already installed")
        original = self._original = Router._miss
        guard = self

        def checked_miss(router, src, dst):
            try:
                path = original(router, src, dst)
            except Exception as exc:
                # Record what the reference says, then let it propagate.
                guard.check(router.topology, src, dst, type(exc))
                raise
            guard.check(router.topology, src, dst, path.links)
            return path

        Router._miss = checked_miss
        return self

    def uninstall(self):
        if self._original is None:
            return
        Router._miss = self._original
        self._original = None

    def check(self, topology, src, dst, outcome):
        """Compare ``outcome`` (a link sequence, or the class of the
        exception the router raised) with a fresh reference search."""
        self.checks += 1
        try:
            expected = ReferenceRouter(topology).path(src, dst).links
        except (KeyError, NoRouteError) as exc:
            expected = type(exc)
        if outcome != expected:
            self._violations.append(RouteViolation(
                src, dst,
                f"router {_describe(outcome)}, reference "
                f"{_describe(expected)}",
            ))

    def violations(self):
        return list(self._violations)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False


def install_route_invariants():
    """Install and return a :class:`RouteInvariantGuard`."""
    return RouteInvariantGuard().install()
