"""Sensor driving: timer events without per-sensor processes.

Each tick of a sensor does nothing but call ``measure_once`` and sleep
again, so :class:`SensorScheduler` drives sensors with bare timer
callbacks rather than generator processes.  Two modes per sensor:

* ``phase=None`` (the default): the sensor is driven *solo* — one
  urgent bootstrap ``Event`` at attach, the phase drawn from the
  sensor's own stream when that bootstrap pops, then one ``Timeout`` per
  tick.  The bootstrap event and the moment of the phase draw are part
  of the same-seed trace: event counts, times, priorities and stream
  draws all follow from them, so the pinned trace digests depend on
  this exact pattern.
* explicit ``phase``: sensors sharing ``(period, phase)`` join one
  *tick group* — a single ``Timeout`` per period fires them all in
  attach order (regional monitoring's N-sensors-one-timer mode).

The scheduler itself is per-simulator and created on demand; it holds
no simulation state beyond its groups, and a sensor leaves the rotation
by its ``stop()`` raising the ``_driver_stopped`` flag the callbacks
check.
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

    __slots__ = ("sim", "period", "phase", "sensors", "ticks")

    def __init__(self, sim, period, phase):
        self.sim = sim
        self.period = period
        self.phase = phase
        self.sensors = []
        #: Group ticks fired so far (diagnostics).
        self.ticks = 0
        self._schedule(phase)

    def _schedule(self, delay):
        timer = Timeout(self.sim, delay)
        timer.callbacks.append(self._tick)

    def _tick(self, _event):
        live = [
            sensor for sensor in self.sensors
            if not sensor._driver_stopped
        ]
        self.sensors = live
        self.ticks += 1
        for sensor in live:
            sensor.tick()
        self._schedule(self.period)


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

        ``phase=None`` drives it solo (bootstrap event, then one timer
        per tick); an explicit phase joins the shared ``(period, phase)``
        tick group, creating it (first tick ``phase`` from now) if
        needed.
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

    def _boot(self, sensor):
        if sensor._driver_stopped:
            return
        # The phase jitter is drawn from the sensor's own stream when the
        # bootstrap pops, not at attach: moving the draw would reorder
        # stream draws and change the pinned trace digests.  From here
        # the sensor re-arms itself (one bound callback, reused — no
        # per-tick closure).
        delay = sensor.stream.uniform(0.0, sensor.period)
        timer = Timeout(self.sim, delay)
        timer.callbacks.append(sensor._solo_tick_cb)
