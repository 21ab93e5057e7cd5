"""repro.obs.perf — host-side measurements of the simulator itself.

The observability layer records *what the grid did*; this package holds
the few readings of *what it cost to simulate*:

* :func:`wall_clock` (:mod:`repro.obs.perf.clock`) — the one host-clock
  read in ``src/``, behind ``fig_scale``'s wall-time column;
* :mod:`repro.obs.perf.bench` — peak RSS and the environment
  fingerprint, shared by ``fig_scale`` and the ``perfbench/``
  benchmark.

Per-layer profiles come from ``perfbench/run.py --trace 1``, and
per-function ones from stdlib ``cProfile`` over the experiments
runner; ``docs/performance.md`` gives both commands.
"""

from repro.obs.perf.clock import wall_clock

__all__ = ["wall_clock"]
