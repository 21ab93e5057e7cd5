"""Ablation — how fresh must monitoring information be?

The paper argues for continuous monitoring: "the replica selection can
be conducted accurately because our cost model is based on the system
monitoring information that [is] update[d] continuously."  This
ablation quantifies the claim in a regime where it can matter at all:
two replica sites over comparable 100 Mbps paths, each of whose uplinks
is hammered by heavy Markov-modulated cross-traffic (idle ↔ 85 %
utilised, ~60 s holding time), so the *best* replica flips every few
minutes.  The same fetch trace then runs with NWS sensor periods from
5 s to 600 s.

A finding worth noting: on the paper's own three-site testbed this
experiment is flat — the same-campus replica dominates statically and
staleness costs nothing.  Freshness only pays when candidates are
genuinely comparable and dynamics actually flip the ranking.
"""

from repro.core.baselines import CostModelSelector
from repro.experiments.base import ExperimentResult
from repro.experiments.harness import register_replicas, run_selection_trace
from repro.experiments.ablation_scale import synthetic_sites
from repro.testbed.builder import build_testbed
from repro.testbed.topology import FLAT_ROUTER, flat

__all__ = ["run_ablation_staleness", "DEFAULT_PERIODS"]

DEFAULT_PERIODS = (5.0, 15.0, 60.0, 180.0, 600.0)

#: Congestion regime: the loaded uplink keeps only 10% capacity.
_CONGESTED = 0.9
_IDLE = 0.05
_HOLDING = 60.0


def _alternating_congestion(grid, site_a, site_b, holding, stream):
    """One site's uplink congested at a time, swapping at Exp(holding).

    Anti-correlated congestion maximises how often the best replica
    flips — the adversarial case for stale monitoring data.
    """

    def links_of(site):
        return [
            grid.topology.link(site.switch_name, FLAT_ROUTER),
            grid.topology.link(FLAT_ROUTER, site.switch_name),
        ]

    def run():
        congested, idle = site_a, site_b
        while True:
            for link in links_of(congested):
                link.background_utilisation = _CONGESTED
            for link in links_of(idle):
                link.background_utilisation = _IDLE
            grid.network.rebalance()
            yield grid.sim.timeout(stream.expovariate(1.0 / holding))
            congested, idle = idle, congested

    return grid.sim.process(run())


def run_ablation_staleness(periods=DEFAULT_PERIODS, rounds=12, gap=50.0,
                           file_size_mb=96, seed=0, warmup=None):
    """One row per sensor period."""
    fixed_warmup = (
        warmup if warmup is not None else 3 * max(periods) + 60.0
    )
    rows = []
    for period in periods:
        sites = synthetic_sites(3)
        testbed = build_testbed(
            topology=flat(sites, "synthetic-3"), seed=seed, dynamic=False,
            sensor_period=period,
        )
        grid = testbed.grid
        client = sites[0].host_names[0]
        replica_hosts = [site.host_names[-1] for site in sites[1:]]
        register_replicas(testbed, "file-a", replica_hosts, file_size_mb)
        # Anti-correlated congestion on the two replica uplinks — the
        # dynamics whose tracking we are testing.
        _alternating_congestion(
            grid, sites[1], sites[2], _HOLDING,
            grid.sim.streams.get("staleness/congestion"),
        )
        testbed.warm_up(fixed_warmup)
        selector = CostModelSelector(grid, testbed.information)
        result = run_selection_trace(
            testbed, selector, client, "file-a",
            rounds=rounds, gap=gap,
        )
        rows.append({
            "sensor_period_s": period,
            "mds_ttl_s": testbed.giis.ttl,
            "mean_fetch_seconds": result.mean_seconds,
            "oracle_agreement": result.oracle_agreement,
        })

    return ExperimentResult(
        experiment_id="abl_staleness",
        title=(
            "Selection quality vs monitoring freshness "
            f"({rounds} fetches of a {file_size_mb} MB file; uplink "
            f"congestion flips every ~{_HOLDING:.0f}s)"
        ),
        headers=[
            "sensor_period_s", "mds_ttl_s", "mean_fetch_seconds",
            "oracle_agreement",
        ],
        rows=rows,
        notes=[
            "Expected shape: periods below the congestion time "
            "constant track the oracle; periods far above it decay "
            "toward uninformed selection.",
            "On the paper's own testbed this table is flat — the "
            "same-campus replica wins statically — so freshness only "
            "matters between genuinely comparable candidates.",
        ],
    )
