"""Ablation — the cost model versus baseline selection policies.

The paper argues its cost model "can provide users or applications the
best choice mechanism for replica selection" but compares against
nothing.  This ablation supplies the missing comparison: the same
request trace under random, round-robin, proximity, least-loaded,
bandwidth-only and cost-model selection, plus the unrealisable oracle,
all on identical (paired) dynamic load trajectories.
"""

from repro.core.baselines import (
    BandwidthOnlySelector,
    CostModelSelector,
    LeastLoadedSelector,
    OracleSelector,
    ProximitySelector,
    RandomSelector,
    RoundRobinSelector,
)
from repro.experiments.base import ExperimentResult
from repro.experiments.harness import register_replicas, run_selection_trace
from repro.testbed import build_testbed

__all__ = ["run_ablation_selectors", "SELECTOR_NAMES"]

SELECTOR_NAMES = (
    "random", "round-robin", "proximity", "least-loaded",
    "bandwidth-only", "cost-model", "oracle",
)


def _make_selector(name, testbed):
    grid, info = testbed.grid, testbed.information
    factories = {
        "random": lambda: RandomSelector(grid),
        "round-robin": lambda: RoundRobinSelector(),
        "proximity": lambda: ProximitySelector(grid),
        "least-loaded": lambda: LeastLoadedSelector(grid, info),
        "bandwidth-only": lambda: BandwidthOnlySelector(grid, info),
        "cost-model": lambda: CostModelSelector(grid, info),
        "oracle": lambda: OracleSelector(grid),
    }
    if name not in factories:
        raise ValueError(f"unknown selector {name!r}")
    return factories[name]()


def run_ablation_selectors(selector_names=SELECTOR_NAMES, rounds=8,
                           gap=60.0, file_size_mb=128, seed=0,
                           warmup=None, topology=None):
    """One row per policy: mean/total fetch time, oracle agreement.

    ``topology`` runs the comparison on a topology preset (spec or
    name, default ``"paper3"``); client and replica hosts come from the
    spec's canonical roles.  ``warmup=None`` uses the testbed's derived
    recommendation (120 s on the paper's testbed).
    """
    rows = []
    for name in selector_names:
        testbed = build_testbed(seed=seed, dynamic=True, topology=topology)
        client, replica_hosts = testbed.roles
        register_replicas(testbed, "file-a", replica_hosts, file_size_mb)
        testbed.warm_up(warmup)
        selector = _make_selector(name, testbed)
        result = run_selection_trace(
            testbed, selector, client, "file-a",
            rounds=rounds, gap=gap,
        )
        rows.append({
            "selector": name,
            "mean_fetch_seconds": result.mean_seconds,
            "total_fetch_seconds": result.total_seconds,
            "oracle_agreement": result.oracle_agreement,
            "rounds": result.rounds,
        })

    rows.sort(key=lambda r: r["mean_fetch_seconds"])
    return ExperimentResult(
        experiment_id="abl_selectors",
        title=(
            f"Selection policies over {rounds} fetches of a "
            f"{file_size_mb} MB file under dynamic load"
        ),
        headers=[
            "selector", "mean_fetch_seconds", "total_fetch_seconds",
            "oracle_agreement", "rounds",
        ],
        rows=rows,
        notes=[
            "Paired traces: every policy sees the same background load "
            "trajectory (same seed, named random streams).",
            "Expected shape: cost-model ~ bandwidth-only ~ oracle << "
            "random/round-robin; least-loaded is hurt by ignoring the "
            "network.",
        ],
    )
