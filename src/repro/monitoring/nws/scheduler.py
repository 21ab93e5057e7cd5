"""Sensor driving: timer events without per-sensor processes.

Each tick of a sensor does nothing but call ``measure_once`` and sleep
again, so :class:`SensorScheduler` drives sensors with bare timer
callbacks rather than generator processes.  Two modes per sensor:

* ``phase=None`` (the default): the sensor is driven *solo* — one
  urgent bootstrap ``Event`` at attach, the phase drawn from the
  sensor's own stream when that bootstrap pops, then one ``Timeout``
  that the sensor re-arms a period ahead on every tick.  The bootstrap
  event and the moment of the phase draw are part of the same-seed
  trace: event counts, times, priorities and stream draws all follow
  from them, so the pinned trace digests depend on this exact pattern.
  Re-arming pushes the timer where a new ``Timeout`` would be created,
  so sequence numbers and event counts are those of one timer per tick
  (the timer's ``delay`` attribute keeps its first, phase delay).
* explicit ``phase``: sensors sharing ``(period, phase)`` join one
  *tick group* — a single re-armed ``Timeout`` fires them all in
  attach order each period (regional monitoring's N-sensors-one-timer
  mode).

The scheduler itself is per-simulator and created on demand; it holds
no simulation state beyond its groups.  A sensor leaves the rotation
by its ``stop()``: the ``_driver_stopped`` flag the groups check, and
for a solo sensor the withdrawal of its queued event.
"""

from weakref import WeakKeyDictionary

from repro.sim.events import PRIORITY_URGENT, Event, Timeout

__all__ = ["SensorScheduler", "scheduler_for"]

#: One scheduler per simulator, created lazily; weak keys so schedulers
#: die with their simulator.
_SCHEDULERS = WeakKeyDictionary()


def scheduler_for(sim):
    """The (lazily created) :class:`SensorScheduler` of ``sim``."""
    scheduler = _SCHEDULERS.get(sim)
    if scheduler is None:
        scheduler = SensorScheduler(sim)
        _SCHEDULERS[sim] = scheduler
    return scheduler


class _TickGroup:
    """Sensors sharing (period, phase): one Timeout drives them all."""

    __slots__ = ("sim", "period", "phase", "sensors", "ticks",
                 "_callbacks")

    def __init__(self, sim, period, phase):
        self.sim = sim
        self.period = period
        self.phase = phase
        self.sensors = []
        #: Group ticks fired so far (diagnostics).
        self.ticks = 0
        self._callbacks = [self._tick]
        timer = Timeout(sim, phase)
        timer.callbacks = self._callbacks

    def _tick(self, timer):
        live = [
            sensor for sensor in self.sensors
            if not sensor._driver_stopped
        ]
        self.sensors = live
        self.ticks += 1
        for sensor in live:
            sensor.tick()
        timer.callbacks = self._callbacks
        self.sim.schedule(timer, self.period)


class SensorScheduler:
    """Per-simulator registry of driven sensors and their tick groups."""

    def __init__(self, sim):
        self.sim = sim
        #: (period, phase) -> _TickGroup for phase-sharing sensors.
        self._groups = {}

    def __repr__(self):
        return f"<SensorScheduler {len(self._groups)} tick groups>"

    def attach(self, sensor, phase=None):
        """Start driving ``sensor``.

        ``phase=None`` drives it solo (bootstrap event, then one
        re-armed timer); an explicit phase joins the shared
        ``(period, phase)`` tick group, creating it (first tick
        ``phase`` from now) if needed.
        """
        if phase is None:
            self._attach_solo(sensor)
            return
        key = (sensor.period, float(phase))
        group = self._groups.get(key)
        if group is None:
            group = _TickGroup(self.sim, sensor.period, float(phase))
            self._groups[key] = group
        group.sensors.append(sensor)

    # -- solo driving ------------------------------------------------------

    def _attach_solo(self, sensor):
        # One urgent plain Event at the current instant; the pinned
        # trace digests count it, so it stays even though the phase
        # could be drawn here directly.
        boot = Event(self.sim)
        boot._ok = True
        boot._value = None
        boot.callbacks.append(lambda _ev: self._boot(sensor))
        self.sim.schedule(boot, priority=PRIORITY_URGENT)
        sensor._solo_event = boot

    def _boot(self, sensor):
        # The phase jitter is drawn from the sensor's own stream when the
        # bootstrap pops, not at attach: moving the draw would reorder
        # stream draws and change the pinned trace digests.  From here
        # the sensor re-arms this one timer on every tick.
        delay = sensor.stream.uniform(0.0, sensor.period)
        timer = Timeout(self.sim, delay)
        timer.callbacks = sensor._solo_callbacks
        sensor._solo_event = timer
