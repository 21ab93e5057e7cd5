"""Markov-modulated levels driven by one re-armed timer.

Background load (link cross traffic, CPU and disk load) holds a level
for an exponentially distributed time, then jumps to a level drawn at
random.  :class:`MarkovModulated` drives such a signal with bare timer
callbacks rather than a generator process, the same pattern as a solo
NWS sensor:

* one urgent bootstrap ``Event`` at construction, whose callback makes
  the first jump at the current instant;
* from then on one ``Timeout``, re-armed an exponential holding time
  ahead after every jump.  It is pushed at the point where a jump's
  new ``Timeout`` would be created, so sequence numbers, event counts
  and event classes are those of one new timer per jump (the reference
  generator process in ``tests/sim/modulated_reference.py``).

A jump draws ``choice`` (the level), ``uniform`` (its jitter, only when
``jitter > 0``) and ``expovariate`` (the holding time) from the stream's
generator, in that order, and calls the subclass's :meth:`_apply` before
the holding time is drawn; the pinned trace digests depend on that
order.  Subclasses validate their levels and apply a clamped level.
"""

from __future__ import annotations

from typing import Sequence

from repro.sim.events import PRIORITY_URGENT, Event, Timeout
from repro.sim.kernel import Simulator
from repro.sim.random_streams import RandomStream

__all__ = ["MarkovModulated"]


class MarkovModulated:
    """Jump among ``levels`` at exponential holding times.

    Parameters
    ----------
    sim:
        The simulator whose queue holds the driver's one timer.
    levels:
        The levels to jump among (uniformly at random).
    mean_holding_time:
        Mean sojourn time in each level, seconds.
    stream:
        The :class:`RandomStream` every draw comes from.
    jitter:
        Additive uniform noise in ``[-jitter, jitter]`` on each jump.
    ceiling:
        Each jittered level is clamped into ``[0, ceiling]``.
    """

    def __init__(self, sim: Simulator, levels: Sequence[float],
                 mean_holding_time: float, stream: RandomStream,
                 jitter: float = 0.0, ceiling: float = 0.95) -> None:
        if not levels:
            raise ValueError("need at least one level")
        if mean_holding_time <= 0:
            raise ValueError("mean_holding_time must be positive")
        if jitter < 0:
            raise ValueError("jitter must be non-negative")
        self.sim = sim
        self.levels = list(levels)
        self.mean_holding_time = float(mean_holding_time)
        self.jitter = float(jitter)
        self.ceiling = ceiling
        self.stream = stream
        #: Level changes made so far (the first one at start-up).
        self.jumps = 0
        rng = stream.rng
        self._choice = rng.choice
        self._uniform = rng.uniform
        self._expovariate = rng.expovariate
        self._rate = 1.0 / self.mean_holding_time
        self._stopped = False
        #: The timer's callback list, reused on every re-arm.
        self._callbacks = [self._jump]
        boot = Event(sim)
        boot._ok = True
        boot._value = None
        boot.callbacks = [self._jump]
        sim.schedule(boot, priority=PRIORITY_URGENT)
        #: The one queued event: the bootstrap, then the re-armed timer.
        self._event: Event = boot

    def _apply(self, level: float) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    def _jump(self, event: Event) -> None:
        level = self._choice(self.levels)
        if self.jitter > 0.0:
            level += self._uniform(-self.jitter, self.jitter)
        self.jumps += 1
        self._apply(min(self.ceiling, max(0.0, level)))
        if self._stopped:
            return
        delay = self._expovariate(self._rate)
        if type(event) is Timeout:
            event.callbacks = self._callbacks
            self.sim.schedule(event, delay)
        else:
            # The bootstrap made the first jump: create the one timer.
            timer = Timeout(self.sim, delay)
            timer.callbacks = self._callbacks
            self._event = timer

    def stop(self) -> None:
        """Stop jumping (the last level stays applied); the queued
        event is withdrawn from the simulator's queue."""
        self._stopped = True
        event = self._event
        if not event.processed:
            event.cancel()
