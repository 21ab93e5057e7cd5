"""Wall-clock access for the performance layer — the one legal shim.

Everything simulated is forbidden from reading the host clock (gridlint
GL001): sim code has exactly one clock, ``Simulator.now``.  Reporting
how long a run took on the host (``fig_scale``'s ``wall_s`` and
``events_per_s`` columns) is the single legitimate consumer of host
time, so this module is the only place in ``src/`` where GL001 is
pragma'd away.  Gridlint keeps the rest of the tree honest.

Wall-clock readings are, by nature, nondeterministic: anything derived
from them may appear only in result rows that vary with the machine,
never in the observability trace the determinism harness digests.
"""

import time

__all__ = ["wall_clock"]


def wall_clock():
    """Seconds on a monotonic high-resolution host clock."""
    return time.perf_counter()  # gridlint: disable=GL001 -- fig_scale's wall-time column
