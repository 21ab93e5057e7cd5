"""nws_sensor: periodic measurement sensors.

Each sensor wakes at its period (with a phase jitter so fleets of
sensors do not synchronise), takes a reading of its resource, perturbs
it with measurement noise, and stores it in its configured memory.

Bandwidth is measured the way NWS really does it: with a small TCP
probe, so the reading reflects what a *new* connection would get through
current cross-traffic and contending flows, capped by the probe's own
TCP limits.

A tick is the sensor's hot path (most events of a run are ticks), so
everything that does not change between ticks is fixed once: the series
key, the noise draw (the stream's bound ``gauss``), and for a bandwidth
sensor its route and TCP stream cap, resolved again only when the
topology's version moves.
"""

import logging

from repro.monitoring.nws.scheduler import scheduler_for
from repro.monitoring.nws.series import series_key

logger = logging.getLogger("repro.monitoring.nws.sensor")

__all__ = [
    "BandwidthSensor",
    "CpuSensor",
    "Sensor",
]


class Sensor:
    """Base periodic sensor."""

    resource = "abstract"
    #: ``(low, high)`` the noisy reading is clamped into, or None.
    value_range = None

    def __init__(self, sim, memory, source, target=None, period=10.0,
                 noise=0.02, stream=None, nameserver=None, phase=None):
        if period <= 0:
            raise ValueError("period must be positive")
        if noise < 0:
            raise ValueError("noise must be non-negative")
        if phase is not None and not 0.0 <= phase < period:
            raise ValueError(
                f"phase must lie in [0, period), got {phase}"
            )
        self.sim = sim
        self.memory = memory
        self.source = source
        self.target = target
        #: The series this sensor's readings are stored under.
        self.key = series_key(self.resource, source, target)
        self.period = float(period)
        self.noise = float(noise)
        self.stream = stream or sim.streams.get(
            f"nws/{self.resource}/{source}/{target}"
        )
        #: Number of measurements taken.
        self.measurements_taken = 0
        #: While True the sensor ticks but records nothing (a chaos
        #: blackout window; forecasts go stale downstream).
        self.paused = False
        #: Ticks skipped while paused.
        self.measurements_skipped = 0
        self._obs_on = sim.obs.enabled
        self._measurement_counter = sim.obs.metrics.counter(
            "nws.measurements", resource=self.resource
        )
        if nameserver is not None:
            nameserver.register("sensor", self.sensor_name, self)
        #: Fixed tick phase; None draws a random one (solo driving).
        self.phase = phase
        #: Raised by stop(): tick groups skip the sensor, and a solo
        #: sensor does not re-arm its timer.
        self._driver_stopped = False
        #: The callback list of the solo timer, reused on every re-arm
        #: (None for tick-group sensors, whose group owns the timer).
        self._solo_callbacks = [self._solo_tick] if phase is None else None
        #: The solo driver's queued event (bootstrap, then the one
        #: re-armed ``Timeout``); None for tick-group sensors.
        self._solo_event = None
        #: Normal draw and clamp bounds of the measurement noise.
        self._gauss = self.stream.rng.gauss
        self._noise_low = 1.0 - 4 * self.noise
        self._noise_high = 1.0 + 4 * self.noise
        scheduler_for(sim).attach(self, phase)

    def __repr__(self):
        return f"<{type(self).__name__} {self.sensor_name}>"

    @property
    def sensor_name(self):
        if self.target is None:
            return f"{self.resource}@{self.source}"
        return f"{self.resource}@{self.source}->{self.target}"

    def read(self):
        """Take one noiseless reading (overridden per resource)."""
        raise NotImplementedError

    def measure_once(self):
        """Take and store one measurement immediately."""
        value = self.read()
        if self.noise:
            # Multiplicative noise clamped to 4 sigma.  Clamping (rather
            # than rejection) keeps one draw per tick, which keeps
            # downstream streams aligned across runs even when
            # parameters change.  The branches are
            # ``min(high, max(low, factor))`` without the two calls
            # (NaN included: it clamps to ``low``).
            factor = self._gauss(1.0, self.noise)
            if not factor > self._noise_low:
                factor = self._noise_low
            elif not factor < self._noise_high:
                factor = self._noise_high
            value *= factor
        bounds = self.value_range
        if bounds is not None:
            value = min(bounds[1], max(bounds[0], value))
        now = self.sim.now
        self.memory.store(self.key, now, value)
        self.measurements_taken += 1
        if self._obs_on:
            self._measurement_counter.inc()
        if logger.isEnabledFor(logging.DEBUG):
            logger.debug(
                "%s measured %.6g at t=%.1f", self.sensor_name, value, now,
            )
        return value

    def tick(self):
        """One driver tick: measure, or skip while blacked out."""
        if self.paused:
            self.measurements_skipped += 1
        else:
            self.measure_once()

    def _solo_tick(self, timer):
        """Solo timer callback: tick, then re-arm the same ``Timeout``
        a period from now."""
        if self.paused:
            self.measurements_skipped += 1
        else:
            self.measure_once()
        if not self._driver_stopped:
            timer.callbacks = self._solo_callbacks
            self.sim.schedule(timer, self.period)

    def pause(self):
        """Black out the sensor: it keeps ticking but records nothing.

        The measurement-noise stream is *not* drawn while paused, so a
        blackout window consumes no randomness and downstream streams
        stay aligned with the campaign's seeded schedule.
        """
        self.paused = True

    def resume(self):
        """End a blackout; the next tick records normally."""
        self.paused = False

    def stop(self):
        """Stop ticking for good; a solo sensor's queued event is
        withdrawn from the simulator's queue."""
        self._driver_stopped = True
        pending = self._solo_event
        if pending is not None and not pending.processed:
            pending.cancel()


class BandwidthSensor(Sensor):
    """End-to-end attainable TCP bandwidth from ``source`` to ``target``.

    Reads what a single fresh TCP probe stream would achieve: the
    path's max-min fair share under current traffic, capped by the TCP
    window/loss limits.  Routes and stream caps are static between
    topology changes, so both are resolved on the first read and again
    only after ``Topology.version`` moves.
    """

    resource = "bandwidth"

    def __init__(self, sim, memory, grid, source, target, period=10.0,
                 noise=0.05, stream=None, nameserver=None, phase=None):
        self.grid = grid
        self._topology = grid.topology
        self._network = grid.network
        #: Topology version the route below was resolved at.
        self._version = None
        self._path = None
        self._cap = None
        super().__init__(
            sim, memory, source, target, period=period, noise=noise,
            stream=stream, nameserver=nameserver, phase=phase,
        )

    def read(self):
        if self._version != self._topology.version:
            self._resolve()
        return self._network.probe_rate(
            self.source, self.target, self._cap, self._path
        )

    def _resolve(self):
        grid = self.grid
        path = grid.path(self.source, self.target)
        self._path = path
        self._cap = grid.tcp_model.stream_cap(path)
        self._version = self._topology.version


class CpuSensor(Sensor):
    """Available CPU fraction on one host."""

    resource = "cpu"
    value_range = (0.0, 1.0)

    def __init__(self, sim, memory, host, period=10.0, noise=0.02,
                 stream=None, nameserver=None, phase=None):
        self.host = host
        super().__init__(
            sim, memory, host.name, None, period=period, noise=noise,
            stream=stream, nameserver=nameserver, phase=phase,
        )

    def read(self):
        return self.host.cpu.idle_fraction
