"""Runtime sanitizers: determinism, sim-time discipline, leak checks.

Three complementary nets over a running simulation (the static side of
the same concerns lives in :mod:`repro.analysis.gridlint`):

* :func:`check_determinism` — run a scenario twice from one seed and
  diff SHA-256 digests of the captured metric/span/event stream;
* :func:`attach_watchdog` / :func:`install_global_watchdog` — kernel
  step hooks asserting the clock is finite, monotonic, and never has
  queued events in its past (``pytest --sanitize`` arms this on every
  simulator the suite builds);
* :func:`check_leaks` — at simulation end, nothing may be half-open:
  no unfinished spans (an open ``*.transfer`` span is a transfer that
  neither completed nor aborted) and no stale queued events.
"""

from repro.analysis.sanitizers.determinism import (
    DeterminismReport,
    Divergence,
    check_determinism,
    run_traced,
    trace_digest,
)
from repro.analysis.sanitizers.leaks import Leak, LeakReport, check_leaks
from repro.analysis.sanitizers.watchdog import (
    GlobalWatchdog,
    SimTimeWatchdog,
    WatchdogError,
    WatchdogViolation,
    attach_watchdog,
    install_global_watchdog,
)

__all__ = [
    "DeterminismReport",
    "Divergence",
    "GlobalWatchdog",
    "Leak",
    "LeakReport",
    "SimTimeWatchdog",
    "WatchdogError",
    "WatchdogViolation",
    "attach_watchdog",
    "check_determinism",
    "check_leaks",
    "install_global_watchdog",
    "run_traced",
    "trace_digest",
]
