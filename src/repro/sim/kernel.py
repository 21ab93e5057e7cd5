"""The simulator: virtual clock plus event queue.

The :class:`Simulator` owns the clock and the priority queue of triggered
events.  Processes (see :mod:`repro.sim.process`) advance by yielding
events; the simulator pops events in time order and resumes the processes
waiting on them.
"""

from __future__ import annotations

from heapq import heappop, heappush
from itertools import count
from typing import Any, Callable, Generator

from repro.obs.core import observability_for
from repro.sim.errors import EmptySchedule, SimulationError
from repro.sim.events import PRIORITY_NORMAL, Event, Timeout
from repro.sim.process import Process
from repro.sim.random_streams import StreamRegistry

__all__ = ["Simulator"]


class Simulator:
    """Discrete-event simulator with a floating-point clock.

    Parameters
    ----------
    initial_time:
        Starting value of the clock (seconds by convention throughout the
        reproduction).
    seed:
        Root seed for the simulator's :class:`StreamRegistry`; every
        stochastic model in the grid draws from named streams derived from
        this seed, making whole experiments reproducible.
    observe:
        ``True`` attaches a live :class:`~repro.obs.Observability` (its
        span/event timestamps read this simulator's clock); ``False``
        the shared disabled one; ``None`` (default) enables it only
        inside an open ``repro.obs.capture()`` context.
    """

    def __init__(self, initial_time: float = 0.0, seed: int = 0,
                 observe: bool | None = None) -> None:
        self._now = float(initial_time)
        #: Pending events: a binary heap of ``(time, priority, seq,
        #: event)`` tuples, so tuple order is pop order (earliest time,
        #: then urgent-before-normal, then FIFO by sequence number).
        #: Cancelled entries stay queued (and counted) until they reach
        #: the head, where they are discarded.
        self._queue: list[tuple[float, int, int, Event]] = []
        self._eid = count()
        self.streams = StreamRegistry(seed)
        #: Number of events processed so far (diagnostic).
        self.events_processed = 0
        #: Number of events pushed onto the queue so far (diagnostic).
        self.events_scheduled = 0
        #: Largest queue length ever observed (diagnostic).
        self.queue_high_water = 0
        #: Sanitizer hooks called after every processed event with
        #: ``(simulator, event)`` — see repro.analysis.sanitizers.
        self._step_hooks: list[Callable[[Simulator, Event], None]] = []
        #: The simulator's observability bundle (metrics/spans/events).
        self.obs = observability_for(lambda: self._now, observe)
        self._obs_on = self.obs.enabled
        if self._obs_on:
            metrics = self.obs.metrics
            self._events_counter = metrics.counter("sim.events_processed")
            self._scheduled_counter = metrics.counter("sim.events_scheduled")
            self._queue_gauge = metrics.gauge("sim.queue_depth")
            self._hwm_gauge = metrics.gauge("sim.queue_high_water")
            self._class_counters: dict[str, Any] = {}

    def __repr__(self) -> str:
        return (
            f"<Simulator t={self._now:.6g} queued={len(self._queue)} "
            f"processed={self.events_processed}>"
        )

    @property
    def now(self) -> float:
        """Current simulated time."""
        return self._now

    @property
    def queue_depth(self) -> int:
        """Entries currently queued (cancelled ones included)."""
        return len(self._queue)

    def queue_cancelled(self) -> int:
        """Cancelled (disarmed guard-timer) entries still queued.

        O(queue) — meant for sampling/diagnostics, not hot paths.
        """
        return sum(1 for entry in self._queue if entry[3].cancelled)

    # -- event factories -------------------------------------------------

    def event(self) -> Event:
        """Create a fresh pending :class:`Event`."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create a :class:`Timeout` triggering ``delay`` from now."""
        return Timeout(self, delay, value)

    def process(self, generator: Generator[Event, Any, Any]) -> Process:
        """Start a new :class:`Process` running ``generator``."""
        return Process(self, generator)

    # -- scheduling -------------------------------------------------------

    def add_step_hook(
        self, hook: Callable[[Simulator, Event], None]
    ) -> Callable[[Simulator, Event], None]:
        """Register ``hook(sim, event)`` to run after every step.

        Used by the runtime sanitizers (sim-time watchdog) and by
        perfbench's event clock; hooks must not schedule events or
        mutate the clock.
        """
        self._step_hooks.append(hook)
        return hook

    def remove_step_hook(
        self, hook: Callable[[Simulator, Event], None]
    ) -> None:
        """Unregister a hook added with :meth:`add_step_hook`."""
        self._step_hooks.remove(hook)

    def schedule(self, event: Event, delay: float = 0.0,
                 priority: int = PRIORITY_NORMAL) -> None:
        """Put a triggered event on the queue ``delay`` into the future."""
        if not delay >= 0:
            # `not >=` rather than `<` so NaN delays are rejected too.
            raise ValueError(f"negative or NaN delay {delay}")
        heappush(
            self._queue, (self._now + delay, priority, next(self._eid), event)
        )
        self.events_scheduled += 1
        depth = len(self._queue)
        if self._obs_on:
            self._scheduled_counter.inc()
        if depth > self.queue_high_water:
            self.queue_high_water = depth
            if self._obs_on:
                self._hwm_gauge.set(depth)

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none.

        Cancelled entries at the head of the queue are discarded on the
        way — a disarmed guard timer never holds the horizon open.
        """
        queue = self._queue
        while queue:
            head = queue[0]
            if not head[3].cancelled:
                return head[0]
            heappop(queue)[3].callbacks = None
        return float("inf")

    def step(self) -> None:
        """Process the single next event.

        Raises :class:`EmptySchedule` when the queue is empty, and
        re-raises any event failure that no process consumed (an
        "undefused" failure), so programming errors surface instead of
        vanishing.  Cancelled events are dropped silently: the clock
        does not advance to them and their callbacks never run.
        """
        while True:
            try:
                when, _, _, event = heappop(self._queue)
            except IndexError:
                raise EmptySchedule("no more events scheduled") from None
            if not event.cancelled:
                break
            # Mark the withdrawn event processed so leak sweeps and
            # `processed` checks see a settled state.
            event.callbacks = None
        if when < self._now:
            raise SimulationError("event scheduled in the past")
        self._now = when
        callbacks, event.callbacks = event.callbacks, None
        for callback in callbacks:
            callback(event)
        self.events_processed += 1
        if self._obs_on:
            self._record_step(event)
        if self._step_hooks:
            for hook in self._step_hooks:
                hook(self, event)
        if not event._ok and not getattr(event, "defused", True):
            raise event._value

    def _record_step(self, event: Event) -> None:
        """Metrics for one processed event (only called when observing)."""
        self._events_counter.inc()
        self._queue_gauge.set(len(self._queue))
        cls = type(event).__name__
        counter = self._class_counters.get(cls)
        if counter is None:
            counter = self.obs.metrics.counter(
                "sim.events_by_class", event_class=cls
            )
            self._class_counters[cls] = counter
        counter.inc()

    def run(self, until: float | Event | None = None) -> Any:
        """Run until the queue drains or the clock passes ``until``.

        ``until`` may be:

        * ``None`` — run to exhaustion;
        * a number — run until that simulated time (the clock is advanced
          to exactly ``until`` even if no event lands there);
        * an :class:`Event` — run until it has been processed, returning
          its value (or raising its exception).
        """
        queue = self._queue
        if until is None:
            while queue:
                if queue[0][3].cancelled:
                    heappop(queue)[3].callbacks = None
                else:
                    self.step()
            return None

        if isinstance(until, Event):
            return self._run_until_event(until)

        horizon = float(until)
        if horizon < self._now:
            raise ValueError(
                f"until={horizon} lies in the past (now={self._now})"
            )
        while queue:
            head = queue[0]
            if head[3].cancelled:
                heappop(queue)[3].callbacks = None
            elif head[0] <= horizon:
                self.step()
            else:
                break
        self._now = horizon
        return None

    def _run_until_event(self, event: Event) -> Any:
        if event.processed:
            return self._event_outcome(event)
        done = []
        event.callbacks.append(done.append)
        while not done:
            try:
                self.step()
            except EmptySchedule:
                raise SimulationError(
                    f"queue drained before {event!r} was triggered"
                ) from None
        return self._event_outcome(event)

    @staticmethod
    def _event_outcome(event: Event) -> Any:
        if event._ok:
            return event._value
        event.defused = True
        raise event._value
