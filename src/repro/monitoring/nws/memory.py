"""nws_memory: persistent storage of measurements plus forecasting.

Each stored series keeps a bounded :class:`SampleSeries` of raw readings
and a :class:`ForecasterBattery` (as in the real NWS, where the
forecaster library runs inside the memory/API layer).  Storing only
appends the reading; the battery catches up on the readings it has not
seen when someone asks for the series' forecast or battery, one
``ForecasterBattery.update`` per value in arrival order, so forecasts
are exactly those of a battery fed on every arrival.  Most series are
never forecast (a selection only asks for its own client's paths), so
most of them cost one append per reading until their bound fills, and
the battery itself is only built at a series' first fold.

The readings not yet folded are the tail of the series itself.  When
the bound evicts a reading the battery has not seen, that one reading
is folded as it leaves, so the battery trails the series by at most
``max_samples_per_series`` readings and nothing is buffered twice.
"""

from repro.monitoring.nws.forecasting import ForecasterBattery, default_battery
from repro.obs.metrics import exponential_buckets
from repro.timeseries import SampleSeries

__all__ = ["NwsMemory"]

#: Absolute forecast errors span CPU fractions (~1e-3) to bandwidth in
#: bytes/second (~1e8), so the buckets cover eleven decades.
_ERROR_BUCKETS = exponential_buckets(1e-6, 10.0, 12)


class _Series:
    """One key's readings, its battery (None until the first fold) and
    how many readings (the newest ones) the battery has not folded yet."""

    __slots__ = ("samples", "battery", "unfolded")

    def __init__(self, samples):
        self.samples = samples
        self.battery = None
        self.unfolded = 0


class NwsMemory:
    """Stores measurement series and answers forecast queries."""

    def __init__(self, sim, name="memory", max_samples_per_series=1000,
                 battery_factory=default_battery):
        self.sim = sim
        self.name = name
        self.max_samples_per_series = max_samples_per_series
        self._battery_factory = battery_factory
        self._records = {}
        self._obs_on = sim.obs.enabled
        self._error_histograms = {}
        self._frozen = False
        #: Measurements dropped while the memory was frozen.
        self.measurements_dropped = 0
        #: Readings folded into batteries, over the memory's lifetime.
        self.folded = 0

    def __repr__(self):
        state = " FROZEN" if self._frozen else ""
        return f"<NwsMemory {self.name}{state} {len(self._records)} series>"

    @property
    def is_frozen(self):
        """True while a stale-reading window is in force."""
        return self._frozen

    def freeze(self):
        """Drop all arriving measurements: every series goes stale.

        Models the chaos engine's stale-reading window — sensors keep
        probing (and consuming their noise streams) but nothing reaches
        the memory, so forecasts age in place.
        """
        self._frozen = True

    def thaw(self):
        """End a stale-reading window; storage resumes."""
        self._frozen = False

    def store(self, key, time, value):
        """Ingest one reading of series ``key`` (dropped while frozen)."""
        if self._frozen:
            self.measurements_dropped += 1
            return
        record = self._records.get(key)
        if record is None:
            record = self._records[key] = _Series(
                SampleSeries(max_samples=self.max_samples_per_series)
            )
        elif self._obs_on:
            # Score the previous forecast against the reading that just
            # arrived, before it is stored.
            prediction, _ = self._caught_up(record).forecast()
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
        samples = record.samples
        evicted = samples.append(time, value)
        if evicted is not None and record.unfolded == samples.max_samples:
            # The oldest reading leaves unseen: fold it on its way out,
            # so the battery still sees every reading in order.
            battery = record.battery
            if battery is None:
                battery = record.battery = self._new_battery()
            battery.update(evicted)
            self.folded += 1
        else:
            record.unfolded += 1

    def _caught_up(self, record):
        """Fold ``record``'s unseen readings; returns its battery."""
        battery = record.battery
        if battery is None:
            battery = record.battery = self._new_battery()
        unfolded = record.unfolded
        if unfolded:
            update = battery.update
            for value in record.samples.recent(unfolded):
                update(value)
            record.unfolded = 0
            self.folded += unfolded
        return battery

    def _new_battery(self):
        return ForecasterBattery(self._battery_factory())

    def keys(self):
        """All stored series keys."""
        return sorted(self._records, key=str)

    def has_series(self, key):
        return key in self._records

    def series(self, key):
        """Raw :class:`SampleSeries` for a key (KeyError if absent)."""
        return self._records[key].samples

    def battery(self, key):
        """The key's :class:`ForecasterBattery`, caught up with every
        stored reading (KeyError if absent)."""
        return self._caught_up(self._records[key])

    def latest(self, key):
        """Most recent (time, value) for a key, or None."""
        record = self._records.get(key)
        if record is None:
            return None
        return record.samples.latest

    def forecast(self, key):
        """(prediction, forecaster_name) for a key, or (None, None)."""
        record = self._records.get(key)
        if record is None:
            return None, None
        return self._caught_up(record).forecast()
