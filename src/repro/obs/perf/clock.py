"""Wall-clock access for the performance layer — the one legal shim.

Everything simulated is forbidden from reading the host clock (gridlint
GL001): sim code has exactly one clock, ``Simulator.now``.  Profiling
and benchmarking are the single legitimate consumer of host time, so
this module is the only place in ``src/`` where GL001 is pragma'd away.
Every wall-time reading in :mod:`repro.obs.perf` comes from here;
gridlint keeps the rest of the tree honest.

Wall-clock readings are, by nature, nondeterministic: anything derived
from them may appear only in profile/benchmark outputs, never in the
observability trace the determinism harness digests.
"""

import time

__all__ = ["wall_clock"]


def wall_clock():
    """Seconds on a monotonic high-resolution host clock."""
    return time.perf_counter()  # gridlint: disable=GL001 -- the profiler's stopwatch

