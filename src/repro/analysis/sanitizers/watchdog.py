"""Sim-time discipline watchdog.

Hooks into the kernel's step hooks and verifies, after every processed
event, the invariants the reproduction's timing math depends on:

* the clock never runs backwards (monotonicity);
* the clock is always finite (a NaN/inf timestamp poisons every
  downstream transfer time and forecast);
* no queued event lies in the past (a negative effective delay).

Violations are recorded (and optionally raised) as
:class:`WatchdogViolation`; :func:`install_global_watchdog` arms every
simulator constructed afterwards, which is what ``pytest --sanitize``
uses to sweep the whole test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import TracebackType
from typing import Any, Literal

from repro.sim.errors import SimulationError
from repro.sim.events import Event
from repro.sim.kernel import Simulator

__all__ = [
    "GlobalWatchdog",
    "SimTimeWatchdog",
    "WatchdogError",
    "WatchdogViolation",
    "attach_watchdog",
    "install_global_watchdog",
]


class WatchdogError(SimulationError):
    """Raised (in strict mode) when a sim-time invariant breaks."""


@dataclass(frozen=True)
class WatchdogViolation:
    """One detected breach of a sim-time invariant."""

    kind: str
    time: float
    detail: str

    def __str__(self) -> str:
        return f"[{self.kind}] t={self.time!r}: {self.detail}"


class SimTimeWatchdog:
    """Watches one simulator via its step hooks.

    Parameters
    ----------
    sim:
        The simulator to watch.
    strict:
        When True, the first violation raises :class:`WatchdogError`
        immediately instead of only being recorded.
    """

    def __init__(self, sim: Simulator, strict: bool = False) -> None:
        self.sim = sim
        self.strict = bool(strict)
        self.violations: list[WatchdogViolation] = []
        self.steps_checked = 0
        self._last_now = sim.now
        self._hook = sim.add_step_hook(self._check)
        self._detached = False

    def __repr__(self) -> str:
        state = "detached" if self._detached else "armed"
        return (
            f"<SimTimeWatchdog {state}: {self.steps_checked} steps, "
            f"{len(self.violations)} violations>"
        )

    @property
    def ok(self) -> bool:
        return not self.violations

    def detach(self) -> None:
        """Stop watching (idempotent)."""
        if not self._detached:
            self.sim.remove_step_hook(self._hook)
            self._detached = True

    def _record(self, kind: str, detail: str) -> None:
        violation = WatchdogViolation(
            kind=kind, time=self.sim.now, detail=detail
        )
        self.violations.append(violation)
        if self.strict:
            raise WatchdogError(str(violation))

    def _check(self, sim: Simulator, event: Event) -> None:
        self.steps_checked += 1
        now = sim.now
        if not math.isfinite(now):
            self._record(
                "non-finite-clock",
                f"clock became {now!r} after {type(event).__name__}",
            )
        elif now < self._last_now:
            self._record(
                "clock-regression",
                f"clock moved backwards {self._last_now!r} -> {now!r} "
                f"processing {type(event).__name__}",
            )
        # The raw heap head, cancelled or not, is the earliest queued
        # entry; reading it (unlike ``sim.peek()``, which discards
        # cancelled heads) leaves the watched queue as it was.
        queue = sim._queue
        head = queue[0][0] if queue else math.inf
        if head < now:
            self._record(
                "past-event-queued",
                f"queue head at t={head!r} lies before now={now!r}",
            )
        self._last_now = now


def attach_watchdog(sim: Simulator, strict: bool = False) -> SimTimeWatchdog:
    """Arm a :class:`SimTimeWatchdog` on ``sim`` and return it."""
    return SimTimeWatchdog(sim, strict=strict)


class GlobalWatchdog:
    """Arms a watchdog on every Simulator constructed while installed.

    Used by ``pytest --sanitize``::

        guard = install_global_watchdog()
        try:
            ... run code that builds simulators ...
        finally:
            guard.uninstall()
        assert not guard.violations()
    """

    def __init__(self, strict: bool = False) -> None:
        self.strict = bool(strict)
        self.watchdogs: list[SimTimeWatchdog] = []
        self._original_init: Any = None

    def install(self) -> GlobalWatchdog:
        if self._original_init is not None:
            raise RuntimeError("global watchdog already installed")
        self._original_init = Simulator.__init__
        original = self._original_init
        guard = self

        def watched_init(sim: Simulator, *args: Any, **kwargs: Any) -> None:
            original(sim, *args, **kwargs)
            guard.watchdogs.append(
                SimTimeWatchdog(sim, strict=guard.strict)
            )

        Simulator.__init__ = watched_init  # type: ignore[method-assign]
        return self

    def uninstall(self) -> None:
        if self._original_init is None:
            return
        Simulator.__init__ = self._original_init  # type: ignore[method-assign]
        self._original_init = None
        for watchdog in self.watchdogs:
            watchdog.detach()

    def violations(self) -> list[WatchdogViolation]:
        """All violations across every watched simulator."""
        out: list[WatchdogViolation] = []
        for watchdog in self.watchdogs:
            out.extend(watchdog.violations)
        return out

    def __enter__(self) -> GlobalWatchdog:
        return self.install()

    def __exit__(self, exc_type: type[BaseException] | None,
                 exc: BaseException | None,
                 tb: TracebackType | None) -> Literal[False]:
        self.uninstall()
        return False


def install_global_watchdog(strict: bool = False) -> GlobalWatchdog:
    """Install and return a :class:`GlobalWatchdog`."""
    return GlobalWatchdog(strict=strict).install()
