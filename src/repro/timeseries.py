"""Time-series utilities shared by monitors and reports.

:class:`SampleSeries` holds discrete measurement samples (NWS sensor
readings, per-site cost values).  It supports windowed views, means and
summary statistics, which is what the NWS memory and the Fig. 5 cost
display need.
"""

import bisect
import math

__all__ = ["SampleSeries"]


class SampleSeries:
    """Timestamped measurement samples with windowed statistics."""

    def __init__(self, max_samples=None):
        if max_samples is not None and max_samples < 1:
            raise ValueError("max_samples must be >= 1")
        self.max_samples = max_samples
        self._times = []
        self._values = []

    def __repr__(self):
        return f"<SampleSeries {len(self._times)} samples>"

    def __len__(self):
        return len(self._times)

    def __iter__(self):
        return iter(zip(self._times, self._values))

    def append(self, time, value):
        """Record one sample; times must be non-decreasing.

        Returns the value of the oldest sample when the bound evicts it,
        else None.
        """
        if self._times and time < self._times[-1]:
            raise ValueError(
                f"non-monotone sample time: {time} < {self._times[-1]}"
            )
        self._times.append(float(time))
        self._values.append(float(value))
        if self.max_samples is not None and len(self._times) > self.max_samples:
            del self._times[0]
            return self._values.pop(0)
        return None

    @property
    def latest(self):
        """The most recent (time, value) pair, or None if empty."""
        if not self._times:
            return None
        return self._times[-1], self._values[-1]

    def values(self):
        return list(self._values)

    def times(self):
        return list(self._times)

    def window(self, t0, t1):
        """Samples with t0 <= time <= t1, as (time, value) pairs."""
        lo = bisect.bisect_left(self._times, t0)
        hi = bisect.bisect_right(self._times, t1)
        return list(zip(self._times[lo:hi], self._values[lo:hi]))

    def recent(self, n):
        """The last ``n`` values (oldest first)."""
        if n < 0:
            raise ValueError("n must be non-negative")
        return self._values[-n:] if n else []

    def mean(self, t0=None, t1=None):
        """Arithmetic mean of samples in the window (all if unbounded)."""
        values = self._windowed_values(t0, t1)
        if not values:
            return math.nan
        return math.fsum(values) / len(values)

    def minimum(self, t0=None, t1=None):
        values = self._windowed_values(t0, t1)
        return min(values) if values else math.nan

    def maximum(self, t0=None, t1=None):
        values = self._windowed_values(t0, t1)
        return max(values) if values else math.nan

    def std(self, t0=None, t1=None):
        """Population standard deviation of windowed samples."""
        values = self._windowed_values(t0, t1)
        if not values:
            return math.nan
        mu = math.fsum(values) / len(values)
        return math.sqrt(
            math.fsum((v - mu) ** 2 for v in values) / len(values)
        )

    def _windowed_values(self, t0, t1):
        if t0 is None and t1 is None:
            return self._values
        lo = 0 if t0 is None else bisect.bisect_left(self._times, t0)
        hi = len(self._times) if t1 is None else bisect.bisect_right(
            self._times, t1
        )
        return self._values[lo:hi]
