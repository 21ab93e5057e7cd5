"""NWS-style forecasting: a battery of predictors, adaptively selected.

NWS's insight is that no single predictor wins on all resource series,
so it runs many cheap ones in parallel and, for each series, reports the
prediction of whichever has the lowest accumulated error so far.  The
battery here mirrors the NWS set: last value, running mean, sliding
means and medians of several window lengths, and exponential smoothing
with several gains.

The predictors sit on the query hot path (every reading a battery
folds scores and updates all of its predictors), so their internals
favour O(1) amortised work: windows are deques, and the median keeps
its window in a bisect-maintained sorted list instead of re-sorting per
prediction.

A battery folds a whole chunk of readings per call:
:meth:`Forecaster.fold` scores and ingests a sequence of readings in
one loop over the forecaster's own state, and
:meth:`ForecasterBattery.update` hands every forecaster the whole chunk
in turn.  Each forecaster's error accumulator still sees the same
additions in the same order, so the result does not depend on how the
readings are split into chunks.

Every optimisation here is value-exact — the reported predictions are
bit-identical to the straightforward definitions (``statistics.median``
over the window, ``math.fsum`` over the window), which the same-seed
trace digests lock in.
"""

import math
from bisect import bisect_left, insort
from collections import deque

__all__ = [
    "ExponentialSmoothing",
    "Forecaster",
    "ForecasterBattery",
    "LastValue",
    "MedianWindow",
    "RunningMean",
    "SlidingWindowMean",
    "default_battery",
]


class Forecaster:
    """One-step-ahead predictor over a scalar series."""

    __slots__ = ()

    name = "forecaster"

    def update(self, value):
        """Feed the next observation."""
        raise NotImplementedError

    def predict(self):
        """Predict the next observation; None until warmed up."""
        raise NotImplementedError

    def fold(self, values, error):
        """Score and ingest ``values`` in order; returns ``(error, scored)``.

        For each value, the pending prediction (if any) is scored
        against it — ``abs(prediction - value)`` is added to ``error``
        and counted in ``scored`` — and then the value is ingested.
        Semantically exactly ``predict()`` then ``update(value)`` per
        value; the built-in forecasters override it with one loop over
        local state, and subclasses get this default.
        """
        predict = self.predict
        update = self.update
        scored = 0
        for value in values:
            pending = predict()
            if pending is not None:
                error += abs(pending - value)
                scored += 1
            update(value)
        return error, scored


class LastValue(Forecaster):
    """Predicts the most recent observation."""

    __slots__ = ("_last",)

    name = "last-value"

    def __init__(self):
        self._last = None

    def update(self, value):
        self._last = value

    def predict(self):
        return self._last

    def fold(self, values, error):
        last = self._last
        scored = 0
        for value in values:
            if last is not None:
                error += abs(last - value)
                scored += 1
            last = value
        self._last = last
        return error, scored


class RunningMean(Forecaster):
    """Predicts the mean of everything seen so far."""

    __slots__ = ("_sum", "_count")

    name = "running-mean"

    def __init__(self):
        self._sum = 0.0
        self._count = 0

    def update(self, value):
        self._sum += value
        self._count += 1

    def predict(self):
        if self._count == 0:
            return None
        return self._sum / self._count

    def fold(self, values, error):
        total = self._sum
        count = self._count
        scored = 0
        for value in values:
            if count:
                error += abs(total / count - value)
                scored += 1
            total += value
            count += 1
        self._sum = total
        self._count = count
        return error, scored


class SlidingWindowMean(Forecaster):
    """Predicts the mean of the last ``window`` observations.

    The mean is a fresh ``math.fsum`` over the window — a running sum
    would drift from it in the last bits — so the prediction stays
    exactly the textbook value.
    """

    __slots__ = ("window", "name", "_values")

    def __init__(self, window):
        if window < 1:
            raise ValueError("window must be >= 1")
        self.window = int(window)
        self.name = f"mean-{self.window}"
        self._values = deque()

    def update(self, value):
        values = self._values
        values.append(value)
        if len(values) > self.window:
            values.popleft()

    def predict(self):
        values = self._values
        if not values:
            return None
        return math.fsum(values) / len(values)

    def fold(self, values, error):
        window = self._values
        size = self.window
        fsum = math.fsum
        scored = 0
        for value in values:
            if window:
                error += abs(fsum(window) / len(window) - value)
                scored += 1
            window.append(value)
            if len(window) > size:
                window.popleft()
        return error, scored


class MedianWindow(Forecaster):
    """Predicts the median of the last ``window`` observations.

    The window is kept twice: arrival order (to know which value falls
    out) and a sorted list maintained by ``insort``/``bisect_left``, so
    predicting is an index instead of a per-call sort.  The even/odd
    index arithmetic replicates ``statistics.median`` exactly.
    """

    __slots__ = ("window", "name", "_values", "_sorted")

    def __init__(self, window):
        if window < 1:
            raise ValueError("window must be >= 1")
        self.window = int(window)
        self.name = f"median-{self.window}"
        self._values = deque()
        self._sorted = []

    def update(self, value):
        values = self._values
        values.append(value)
        insort(self._sorted, value)
        if len(values) > self.window:
            old = values.popleft()
            del self._sorted[bisect_left(self._sorted, old)]

    def predict(self):
        ordered = self._sorted
        n = len(ordered)
        if n == 0:
            return None
        mid = n // 2
        if n % 2:
            return ordered[mid]
        return (ordered[mid - 1] + ordered[mid]) / 2

    def fold(self, values, error):
        window = self._values
        ordered = self._sorted
        size = self.window
        scored = 0
        for value in values:
            n = len(ordered)
            if n:
                mid = n // 2
                if n % 2:
                    pending = ordered[mid]
                else:
                    pending = (ordered[mid - 1] + ordered[mid]) / 2
                error += abs(pending - value)
                scored += 1
            window.append(value)
            insort(ordered, value)
            if n >= size:
                del ordered[bisect_left(ordered, window.popleft())]
        return error, scored


class ExponentialSmoothing(Forecaster):
    """Predicts an exponentially smoothed value with gain ``alpha``."""

    __slots__ = ("alpha", "name", "_state")

    def __init__(self, alpha):
        if not 0.0 < alpha <= 1.0:
            raise ValueError("alpha must be in (0, 1]")
        self.alpha = float(alpha)
        self.name = f"exp-{self.alpha:g}"
        self._state = None

    def update(self, value):
        if self._state is None:
            self._state = value
        else:
            self._state = self.alpha * value + (1 - self.alpha) * self._state

    def predict(self):
        return self._state

    def fold(self, values, error):
        alpha = self.alpha
        keep = 1 - alpha
        state = self._state
        scored = 0
        for value in values:
            if state is None:
                state = value
            else:
                error += abs(state - value)
                scored += 1
                state = alpha * value + keep * state
        self._state = state
        return error, scored


def default_battery():
    """The predictor set NWS ships by default (modulo exact constants)."""
    return [
        LastValue(),
        RunningMean(),
        SlidingWindowMean(5),
        SlidingWindowMean(21),
        MedianWindow(5),
        MedianWindow(21),
        ExponentialSmoothing(0.1),
        ExponentialSmoothing(0.3),
        ExponentialSmoothing(0.7),
    ]


class ForecasterBattery:
    """Runs every forecaster and reports the historically best one.

    Before each reading is ingested, every forecaster's pending
    prediction is scored against it (absolute error, accumulated as MAE);
    :meth:`forecast` returns the prediction of the forecaster with the
    lowest MAE so far.
    """

    def __init__(self, forecasters=None):
        if forecasters is None:
            forecasters = default_battery()
        if not forecasters:
            raise ValueError("need at least one forecaster")
        self.forecasters = list(forecasters)
        # Scores are index-parallel to ``forecasters`` and the fold
        # methods are prebound: update() runs thousands of times per
        # run (once per store with observability on), so per-forecaster
        # constant factors (attribute lookups, name hashing) are
        # hot-path cost.
        self._folds = [f.fold for f in self.forecasters]
        self._abs_error = [0.0] * len(self.forecasters)
        self._scored = [0] * len(self.forecasters)
        self._index = {
            f.name: i for i, f in enumerate(self.forecasters)
        }
        self.observations = 0

    def __repr__(self):
        return (
            f"<ForecasterBattery {len(self.forecasters)} predictors, "
            f"{self.observations} observations>"
        )

    def update(self, values):
        """Fold the sequence ``values`` in order: before each reading is
        ingested, every pending prediction is scored against it.

        Runs forecaster by forecaster over the whole sequence; each
        error accumulator sees the same additions in the same order as
        one reading at a time would give, so any split of a series into
        calls folds to bit-identical state.  A single reading is passed
        as a one-element sequence.
        """
        abs_error = self._abs_error
        scored = self._scored
        index = 0
        for fold in self._folds:
            abs_error[index], count = fold(values, abs_error[index])
            scored[index] += count
            index += 1
        self.observations += len(values)

    def mae(self, name):
        """Mean absolute error of one forecaster (inf until scored)."""
        index = self._index[name]
        if self._scored[index] == 0:
            return math.inf
        return self._abs_error[index] / self._scored[index]

    def _mae_at(self, index):
        if self._scored[index] == 0:
            return math.inf
        return self._abs_error[index] / self._scored[index]

    def _best(self):
        """Lowest-MAE forecaster (ties: battery order, as ``min`` breaks
        them)."""
        forecasters = self.forecasters
        best = forecasters[0]
        best_mae = self._mae_at(0)
        for index in range(1, len(forecasters)):
            mae = self._mae_at(index)
            if mae < best_mae:
                best = forecasters[index]
                best_mae = mae
        return best

    def best_name(self):
        """Name of the forecaster with the lowest MAE (ties: battery order)."""
        return self._best().name

    def forecast(self):
        """(prediction, forecaster_name); (None, name) until warmed up."""
        best = self._best()
        return best.predict(), best.name
