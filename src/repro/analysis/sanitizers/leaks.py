"""Resource-leak check at simulation end.

A finished simulation should have nothing half-open: every tracing span
finished (a still-open ``<protocol>.transfer`` span is a transfer that
never completed nor aborted cleanly) and no events left on the queue
below the stop horizon.  Leaks do not crash a run — they silently drop
rows from the exhibits, which is worse.

Usage::

    report = check_leaks(grid)       # or a Simulator / Observability
    assert report.ok, report.describe()
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from typing import Any

__all__ = ["Leak", "LeakReport", "check_leaks"]


@dataclass(frozen=True)
class Leak:
    """One resource left open at simulation end."""

    kind: str
    name: str
    detail: str

    def __str__(self) -> str:
        return f"[{self.kind}] {self.name}: {self.detail}"


class LeakReport:
    """Outcome of one leak sweep."""

    def __init__(self, leaks: Iterable[Leak]) -> None:
        self.leaks = list(leaks)

    def __repr__(self) -> str:
        state = "clean" if self.ok else f"{len(self.leaks)} leaks"
        return f"<LeakReport {state}>"

    @property
    def ok(self) -> bool:
        return not self.leaks

    def describe(self) -> str:
        if self.ok:
            return "no leaks"
        return "\n".join(str(leak) for leak in self.leaks)


def _resolve(target: Any) -> tuple[Any, Any]:
    """Accept a DataGrid, Simulator or Observability."""
    sim = None
    obs = getattr(target, "obs", None)
    if obs is not None:
        # DataGrid or Simulator.
        sim = getattr(target, "sim", target)
    else:
        obs = target
    return sim, obs


def check_leaks(target: Any) -> LeakReport:
    """Sweep for unclosed spans/transfers and stale queued events.

    ``target`` may be a :class:`~repro.grid.DataGrid`, a
    :class:`~repro.sim.Simulator` or an
    :class:`~repro.obs.Observability`.
    """
    sim, obs = _resolve(target)
    leaks: list[Leak] = []

    tracer = getattr(obs, "tracer", None)
    if tracer is not None and getattr(tracer, "enabled", False):
        for span_id in sorted(tracer.open_spans):
            span = tracer.open_spans[span_id]
            kind = (
                "unclosed-transfer"
                if span.name.endswith(".transfer")
                else "unclosed-span"
            )
            leaks.append(Leak(
                kind=kind, name=span.name,
                detail=(
                    f"span #{span.span_id} opened at t={span.start:.6g} "
                    "was never finished"
                ),
            ))

    if sim is not None and getattr(sim, "peek", None) is not None:
        pending = sim.peek()
        if pending < sim.now:
            leaks.append(Leak(
                kind="stale-event", name="queue",
                detail=(
                    f"queue head at t={pending!r} predates the clock "
                    f"(now={sim.now!r})"
                ),
            ))

    if sim is not None and getattr(sim, "_queue", None) is not None:
        # Guard timers (fault injectors, attempt timeouts, chaos
        # reverts) tag their timeout events with ``guard_tag``.  One
        # still queued and not cancelled at sweep time is a guard that
        # was never disarmed — it silently holds the horizon open.
        for entry in sim._queue:
            event = entry[3]
            tag = getattr(event, "guard_tag", None)
            if tag is not None and not event.cancelled:
                leaks.append(Leak(
                    kind="armed-guard", name=tag,
                    detail=(
                        f"guard timer scheduled for t={entry[0]:.6g} "
                        "was never disarmed"
                    ),
                ))

    return LeakReport(leaks)
