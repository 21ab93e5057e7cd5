"""repro.obs.perf — performance observability for the simulator itself.

The PR-1 observability layer records *what the grid did*; this package
records *what it cost to simulate*:

* :class:`KernelProfiler` / :func:`profile` — low-overhead kernel
  profiling: per-component wall time for every event callback, plus
  sampled queue telemetry (depth, cancelled guard timers, event
  counts) over sim time.  Off by default; invisible to the simulation
  (same-seed trace digests are byte-identical with profiling on or
  off).
* :func:`render_perf_report` — the human hot-component table behind
  ``repro-experiments --perf-report``.
* :mod:`repro.obs.perf.bench` — :class:`SimUsageTracker`, peak RSS
  and the environment fingerprint, shared by ``fig_scale`` and the
  ``perfbench/`` benchmark.

See ``docs/performance.md`` for the full story, including how
``perfbench/`` measures and gates a change.
"""

from repro.obs.perf.clock import wall_clock
from repro.obs.perf.components import (
    COMPONENT_OTHER,
    ComponentClassifier,
    component_of_path,
)
from repro.obs.perf.profiler import (
    ComponentStats,
    KernelProfiler,
    QueueSample,
    profile,
)


def render_perf_report(profiler, top=10, title="kernel profile"):
    """Render one KernelProfiler as an aligned-text report.

    Imported lazily: :mod:`repro.obs.perf.report` reuses the experiment
    reporting toolkit, and the experiment package imports the simulator
    — a top-level import here would close that cycle.
    """
    from repro.obs.perf.report import render_perf_report as _render

    return _render(profiler, top=top, title=title)


__all__ = [
    "COMPONENT_OTHER",
    "ComponentClassifier",
    "ComponentStats",
    "KernelProfiler",
    "QueueSample",
    "component_of_path",
    "profile",
    "render_perf_report",
    "wall_clock",
]
