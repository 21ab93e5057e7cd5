"""nws_memory: persistent storage of measurements plus forecasting.

Each stored series keeps a bounded :class:`SampleSeries` of raw readings
and a :class:`ForecasterBattery` (as in the real NWS, where the
forecaster library runs inside the memory/API layer).  Storing only
appends the reading; the battery catches up on the readings it has not
seen when someone asks for the series' forecast or battery, in one
``ForecasterBattery.update`` over all of them in arrival order, so
forecasts are exactly those of a battery fed on every arrival.  Most
series are never forecast (a selection only asks for its own client's
paths), so most of them cost one append per reading until their bound
fills, and the battery itself is only built at a series' first fold.

The readings not yet folded are the tail of the series itself.  When
the bound is about to evict a reading the battery has not seen, the
whole series is unfolded, so the memory folds ahead: the evicted
reading and the oldest readings still in the series, ``FOLD_CHUNK`` in
all, in one ``update``.  The battery still trails the series by at most
``max_samples_per_series`` readings, nothing is buffered twice, and a
full series nobody queries costs one battery update per ``FOLD_CHUNK``
stores (per ``max_samples_per_series + 1`` below that) instead of one
per store.
"""

from repro.monitoring.nws.forecasting import ForecasterBattery, default_battery
from repro.obs.metrics import exponential_buckets
from repro.timeseries import SampleSeries

__all__ = ["FOLD_CHUNK", "NwsMemory"]

#: Readings folded at once when an unseen reading is evicted: the
#: evicted one and the oldest ``FOLD_CHUNK - 1`` still stored.  A larger
#: chunk makes fewer battery calls but folds further ahead of need: on
#: seed-0 ``paper3_selection`` the memory folds 51,357 readings at 16,
#: 53,613 at 32 and 58,125 at 64, against 50,941 one at a time, and
#: its CPU time does not separate between 16 and 64.
FOLD_CHUNK = 32

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
            # The oldest reading leaves unseen, so nothing in the series
            # has been folded either: fold it together with the oldest
            # readings still stored, so the battery still sees every
            # reading in order.
            battery = record.battery
            if battery is None:
                battery = record.battery = self._new_battery()
            ahead = samples.oldest(FOLD_CHUNK - 1)
            record.unfolded = len(samples) - len(ahead)
            ahead.insert(0, evicted)
            battery.update(ahead)
            self.folded += len(ahead)
        else:
            record.unfolded += 1

    def _caught_up(self, record):
        """Fold ``record``'s unseen readings; returns its battery."""
        battery = record.battery
        if battery is None:
            battery = record.battery = self._new_battery()
        unfolded = record.unfolded
        if unfolded:
            battery.update(record.samples.recent(unfolded))
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
