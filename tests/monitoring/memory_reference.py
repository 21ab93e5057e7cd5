"""Reference NWS memory for the memory differential battery.

:class:`repro.monitoring.nws.NwsMemory` appends each reading and folds
it into the series' :class:`ForecasterBattery` only when someone asks
for that series' forecast or battery, or when the bound evicts it
unseen (then with a chunk of the oldest stored readings).
:class:`EagerMemory` keeps the memory it replaced, verbatim: a battery
fed on every stored reading, one reading per ``update``.  The only
addition is :meth:`EagerMemory.battery`, the accessor the lazy memory
now offers.
``tests/monitoring/test_memory_differential.py`` requires the two to
report bit-identical predictions, errors and histograms.

It lives under ``tests/`` because nothing in the library may call it.
"""

from repro.monitoring.nws.forecasting import ForecasterBattery, default_battery
from repro.monitoring.nws.memory import _ERROR_BUCKETS
from repro.timeseries import SampleSeries

__all__ = ["EagerMemory"]


class EagerMemory:
    """Folds every stored reading into its battery on arrival."""

    def __init__(self, sim, name="memory", max_samples_per_series=1000,
                 battery_factory=default_battery):
        self.sim = sim
        self.name = name
        self.max_samples_per_series = max_samples_per_series
        self._battery_factory = battery_factory
        self._series = {}
        self._batteries = {}
        self._obs_on = sim.obs.enabled
        self._error_histograms = {}
        self._frozen = False
        self.measurements_dropped = 0

    def freeze(self):
        self._frozen = True

    def thaw(self):
        self._frozen = False

    def store(self, key, time, value):
        if self._frozen:
            self.measurements_dropped += 1
            return
        series = self._series.get(key)
        if series is None:
            series = self._series[key] = SampleSeries(
                max_samples=self.max_samples_per_series
            )
            self._batteries[key] = ForecasterBattery(self._battery_factory())
        elif self._obs_on:
            prediction, _ = self._batteries[key].forecast()
            if prediction is not None:
                resource = key[0]
                histogram = self._error_histograms.get(resource)
                if histogram is None:
                    histogram = self.sim.obs.metrics.histogram(
                        "nws.forecast_abs_error", bounds=_ERROR_BUCKETS,
                        resource=resource,
                    )
                    self._error_histograms[resource] = histogram
                histogram.observe(abs(prediction - value))
        series.append(time, value)
        # The lazy memory's battery reads values back from the series,
        # which stores floats.
        self._batteries[key].update((float(value),))

    def keys(self):
        return sorted(self._series, key=str)

    def series(self, key):
        return self._series[key]

    def battery(self, key):
        return self._batteries[key]

    def forecast(self, key):
        if key not in self._batteries:
            return None, None
        return self._batteries[key].forecast()
