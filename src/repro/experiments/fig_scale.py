"""fig_scale — replica selection at grid scale (ROADMAP item 2).

The paper's testbed is three sites; this exhibit sweeps the
``scaled(n)`` topology family from tens to a thousand sites and
reports, per grid size:

* *selection quality* — the cost model's oracle agreement and mean
  fetch time over a short selection trace (the paper's usage pattern,
  unchanged — only the grid underneath grows);
* *simulator throughput* — events/sec over the whole build + warm-up +
  trace, from the kernel's diagnostic counters;
* *memory* — peak RSS of the process after the run.

Wall-clock and RSS columns vary machine to machine, so they live only
in the result rows; the simulator's speed at this scale is measured by
``perfbench/``'s ``grid_scale_1000`` workload.  Everything the
simulation itself produces is seeded and digest-stable, which is what
the determinism gate checks.
"""

from repro.core.baselines import CostModelSelector
from repro.experiments.base import ExperimentResult
from repro.experiments.harness import register_replicas, run_selection_trace
from repro.obs.perf.bench import SimUsageTracker, peak_rss_bytes
from repro.obs.perf.clock import wall_clock
from repro.testbed import build_testbed
from repro.testbed.topology import scaled

__all__ = ["run_fig_scale", "SIZES_FULL", "SIZES_QUICK", "sensor_period_for"]

#: The full sweep: one decade per step, 10 -> 1000 sites.
SIZES_FULL = (10, 100, 300, 1000)

#: The CI sweep: small enough for the sanitize determinism gate.
SIZES_QUICK = (10, 40)


def sensor_period_for(n_sites):
    """Monitoring period scaled with grid size, as real deployments do
    (a thousand sites cannot probe every 10 s)."""
    if n_sites <= 50:
        return 10.0
    if n_sites <= 300:
        return 30.0
    return 60.0


def run_fig_scale(sizes=SIZES_FULL, seed=0, rounds=3, gap=30.0,
                  file_size_mb=16, topology_seed=0):
    """One row per grid size: quality, throughput, memory."""
    rows = []
    for n_sites in sizes:
        spec = scaled(n_sites, seed=topology_seed, hosts_per_site=1)
        period = sensor_period_for(n_sites)
        tracker = SimUsageTracker()
        begin = wall_clock()
        with tracker:
            testbed = build_testbed(
                topology=spec, seed=seed, sensor_period=period,
                dynamic=True,
            )
            client, replicas = testbed.roles
            register_replicas(testbed, "file-a", replicas, file_size_mb)
            testbed.grid.network.rebalance()
            testbed.warm_up()
            selector = CostModelSelector(
                testbed.grid, testbed.information
            )
            trace = run_selection_trace(
                testbed, selector, client, "file-a",
                rounds=rounds, gap=gap,
            )
        wall_s = wall_clock() - begin
        events = tracker.events_processed
        rows.append({
            "n_sites": n_sites,
            "regions": len(spec.regions),
            "hosts": len(testbed.grid.hosts),
            "sensors": len(testbed.sensors),
            "warmup_s": testbed.recommended_warmup,
            "oracle_agreement": trace.oracle_agreement,
            "mean_fetch_seconds": trace.mean_seconds,
            "events": events,
            "sim_s": tracker.sim_seconds,
            "events_per_s": events / wall_s if wall_s > 0 else 0.0,
            "wall_s": wall_s,
            "peak_rss_mb": peak_rss_bytes() / 1e6,
        })

    return ExperimentResult(
        experiment_id="fig_scale",
        title=(
            "Replica selection at grid scale: quality, events/sec and "
            f"peak RSS vs grid size ({rounds} fetches of a "
            f"{file_size_mb} MB file per size)"
        ),
        headers=[
            "n_sites", "regions", "hosts", "sensors", "warmup_s",
            "oracle_agreement", "mean_fetch_seconds", "events",
            "sim_s", "events_per_s", "wall_s", "peak_rss_mb",
        ],
        rows=rows,
        notes=[
            "Monitoring is hierarchical (regional) above 12 sites: "
            "per-region GIIS/NWS federated at the selection host, "
            "sensors on the site-rep<->hub and hub<->hub pairs only.",
            "events, sim_s and all selection columns are seeded and "
            "digest-stable; events_per_s, wall_s and peak_rss_mb vary "
            "with the machine (the BENCH trajectory tracks them).",
            "Peak RSS is process-wide and monotone across rows; the "
            "last row's value is the sweep's high-water mark.",
        ],
    )
