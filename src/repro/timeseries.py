"""Time-series utilities shared by monitors and reports.

:class:`SampleSeries` holds discrete measurement samples (NWS sensor
readings, per-site cost values).  It supports windowed views, means and
summary statistics, which is what the NWS memory and the Fig. 5 cost
display need.

A bounded series evicts its oldest sample on every append once full,
which is the steady state of every NWS series.  Eviction is O(1)
amortised: the samples live in two plain lists behind a start offset,
an eviction only advances the offset, and the dead prefix is trimmed
in one slice deletion once it exceeds a thirty-second of the bound.  A
``deque(maxlen=...)`` would also evict in O(1), but it allocates a
64-slot block per series, far more than the few samples most series of
a large grid hold.
"""

import bisect
import math
from itertools import islice

__all__ = ["SampleSeries"]


class SampleSeries:
    """Timestamped measurement samples with windowed statistics."""

    __slots__ = ("max_samples", "_times", "_values", "_start")

    def __init__(self, max_samples=None):
        if max_samples is not None and max_samples < 1:
            raise ValueError("max_samples must be >= 1")
        self.max_samples = max_samples
        self._times = []
        self._values = []
        #: Index of the oldest live sample; the entries before it are
        #: evicted samples not yet trimmed.
        self._start = 0

    def __repr__(self):
        return f"<SampleSeries {len(self)} samples>"

    def __len__(self):
        return len(self._times) - self._start

    def __iter__(self):
        return islice(zip(self._times, self._values), self._start, None)

    def append(self, time, value):
        """Record one sample; times must be non-decreasing.

        Returns the value of the oldest sample when the bound evicts it,
        else None.
        """
        times = self._times
        if times and time < times[-1]:
            raise ValueError(
                f"non-monotone sample time: {time} < {times[-1]}"
            )
        values = self._values
        times.append(float(time))
        values.append(float(value))
        bound = self.max_samples
        start = self._start
        if bound is None or len(times) - start <= bound:
            return None
        evicted = values[start]
        start += 1
        # Trimming every ~bound/32 evictions moves ~bound entries, so an
        # eviction is O(1) amortised and at most ~3% of the entries are
        # dead.
        if start > bound >> 5:
            del times[:start]
            del values[:start]
            start = 0
        self._start = start
        return evicted

    @property
    def latest(self):
        """The most recent (time, value) pair, or None if empty."""
        if not self._times:
            return None
        return self._times[-1], self._values[-1]

    def values(self):
        return self._values[self._start:]

    def times(self):
        return self._times[self._start:]

    def window(self, t0, t1):
        """Samples with t0 <= time <= t1, as (time, value) pairs."""
        times = self._times
        lo = bisect.bisect_left(times, t0, self._start)
        hi = bisect.bisect_right(times, t1, self._start)
        return list(zip(times[lo:hi], self._values[lo:hi]))

    def recent(self, n):
        """The last ``n`` values (oldest first; all of them if fewer)."""
        if n < 0:
            raise ValueError("n must be non-negative")
        values = self._values
        return values[max(self._start, len(values) - n):] if n else []

    def oldest(self, n):
        """The first ``n`` values (oldest first; all of them if fewer)."""
        if n < 0:
            raise ValueError("n must be non-negative")
        start = self._start
        return self._values[start:start + n]

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
        start = self._start
        if t0 is None and t1 is None:
            return self._values[start:] if start else self._values
        times = self._times
        lo = start if t0 is None else bisect.bisect_left(times, t0, start)
        hi = len(times) if t1 is None else bisect.bisect_right(
            times, t1, start
        )
        return self._values[lo:hi]
