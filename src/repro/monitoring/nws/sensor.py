"""nws_sensor: periodic measurement sensors.

Each sensor wakes at its period (with a phase jitter so fleets of
sensors do not synchronise), takes a reading of its resource, perturbs
it with measurement noise, and stores it in its configured memory.

Bandwidth is measured the way NWS really does it: with a small TCP
probe, so the reading reflects what a *new* connection would get through
current cross-traffic and contending flows, capped by the probe's own
TCP limits.
"""

import logging

from repro.monitoring.nws.scheduler import scheduler_for
from repro.monitoring.nws.series import Measurement, series_key
from repro.sim.events import Timeout

logger = logging.getLogger("repro.monitoring.nws.sensor")

__all__ = [
    "BandwidthSensor",
    "CpuSensor",
    "FreeMemorySensor",
    "LatencySensor",
    "Sensor",
]


class Sensor:
    """Base periodic sensor."""

    resource = "abstract"

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
        self._measurement_counter = sim.obs.metrics.counter(
            "nws.measurements", resource=self.resource
        )
        if nameserver is not None:
            nameserver.register("sensor", self.sensor_name, self)
        #: Fixed tick phase; None draws a random one (solo driving).
        self.phase = phase
        #: Raised by stop(); the scheduler checks it before ticking.
        self._driver_stopped = False
        #: Reusable bound callback for solo timers (one allocation for
        #: the sensor's whole lifetime).
        self._solo_tick_cb = self._solo_tick
        #: Measurement-noise clamp bounds (fixed once noise is set).
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

    @property
    def key(self):
        return series_key(self.resource, self.source, self.target)

    def read(self):
        """Take one noiseless reading (overridden per resource)."""
        raise NotImplementedError

    def _perturb(self, value):
        if self.noise == 0.0:
            return value
        factor = self.stream.truncated_normal(
            1.0, self.noise, self._noise_low, self._noise_high
        )
        return value * factor

    def measure_once(self):
        """Take and store one measurement immediately."""
        value = self._perturb(self.read())
        self.memory.store(
            Measurement(
                self.resource, self.source, self.target,
                self.sim.now, value,
            )
        )
        self.measurements_taken += 1
        self._measurement_counter.inc()
        if logger.isEnabledFor(logging.DEBUG):
            logger.debug(
                "%s measured %.6g at t=%.1f", self.sensor_name, value,
                self.sim.now,
            )
        return value

    def tick(self):
        """One driver tick: measure, or skip while blacked out."""
        if self.paused:
            self.measurements_skipped += 1
        else:
            self.measure_once()

    def _solo_tick(self, _event):
        """Solo timer callback: tick, then re-arm one ``Timeout`` a
        period from now."""
        if self._driver_stopped:
            return
        if self.paused:
            self.measurements_skipped += 1
        else:
            self.measure_once()
        timer = Timeout(self.sim, self.period)
        timer.callbacks.append(self._solo_tick_cb)

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
        self._driver_stopped = True


class BandwidthSensor(Sensor):
    """End-to-end attainable TCP bandwidth from ``source`` to ``target``.

    Reads what a single fresh TCP probe stream would achieve: the
    path's max-min fair share under current traffic, capped by the TCP
    window/loss limits.
    """

    resource = "bandwidth"

    def __init__(self, sim, memory, grid, source, target, period=10.0,
                 noise=0.05, stream=None, nameserver=None, phase=None):
        self.grid = grid
        super().__init__(
            sim, memory, source, target, period=period, noise=noise,
            stream=stream, nameserver=nameserver, phase=phase,
        )

    def read(self):
        grid = self.grid
        path = grid.path(self.source, self.target)
        cap = grid.tcp_model.stream_cap(path)
        return grid.network.probe_rate(
            self.source, self.target, cap=cap, path=path
        )


class LatencySensor(Sensor):
    """Round-trip latency from ``source`` to ``target``."""

    resource = "latency"

    def __init__(self, sim, memory, grid, source, target, period=10.0,
                 noise=0.02, stream=None, nameserver=None, phase=None):
        self.grid = grid
        super().__init__(
            sim, memory, source, target, period=period, noise=noise,
            stream=stream, nameserver=nameserver, phase=phase,
        )

    def read(self):
        return self.grid.path(self.source, self.target).rtt


class CpuSensor(Sensor):
    """Available CPU fraction on one host."""

    resource = "cpu"

    def __init__(self, sim, memory, host, period=10.0, noise=0.02,
                 stream=None, nameserver=None, phase=None):
        self.host = host
        super().__init__(
            sim, memory, host.name, None, period=period, noise=noise,
            stream=stream, nameserver=nameserver, phase=phase,
        )

    def read(self):
        return self.host.cpu.idle_fraction

    def _perturb(self, value):
        return min(1.0, max(0.0, super()._perturb(value)))


class FreeMemorySensor(Sensor):
    """Free (non-paged) memory on one host, bytes.

    The reproduction does not model memory pressure, so this reports a
    noisy constant — present for NWS interface completeness.
    """

    resource = "memory"

    def __init__(self, sim, memory, host, free_fraction=0.6, period=30.0,
                 noise=0.05, stream=None, nameserver=None, phase=None):
        if not 0.0 <= free_fraction <= 1.0:
            raise ValueError("free_fraction must be in [0, 1]")
        self.host = host
        self.free_fraction = float(free_fraction)
        super().__init__(
            sim, memory, host.name, None, period=period, noise=noise,
            stream=stream, nameserver=nameserver, phase=phase,
        )

    def read(self):
        return self.host.memory_bytes * self.free_fraction
