"""Ablation — sensitivity to the cost-model weights.

Section 3.3 of the paper fixes BW_W/CPU_W/IO_W at 80/10/10 "after
several experimental measurements" and leaves determining them
systematically as future work (item 2 of §5).  This ablation sweeps the
weight simplex along the axes that matter and measures realised fetch
times on paired traces.
"""

from repro.core.baselines import CostModelSelector
from repro.core.weights import SelectionWeights
from repro.experiments.base import ExperimentResult
from repro.experiments.harness import register_replicas, run_selection_trace
from repro.testbed import build_testbed

__all__ = ["run_ablation_weights", "DEFAULT_WEIGHT_GRID"]

#: (bandwidth, cpu, io) combinations: the paper's pick, pure-bandwidth,
#: uniform, and load-heavy corners.
DEFAULT_WEIGHT_GRID = (
    (1.0, 0.0, 0.0),
    (0.9, 0.05, 0.05),
    (0.8, 0.1, 0.1),     # the paper's choice
    (0.6, 0.2, 0.2),
    (1 / 3, 1 / 3, 1 / 3),
    (0.2, 0.4, 0.4),
    (0.0, 0.5, 0.5),
)


def run_ablation_weights(weight_grid=DEFAULT_WEIGHT_GRID, rounds=8,
                         gap=60.0, file_size_mb=128, seed=0,
                         warmup=None, topology=None):
    """One row per weight triple: realised fetch statistics.

    ``topology`` runs the sweep on a topology preset (spec or name,
    default ``"paper3"``); client and replica hosts come from the spec's
    canonical roles.
    ``warmup=None`` uses the testbed's derived recommendation (120 s on
    the paper's testbed).
    """
    rows = []
    for bw, cpu, io in weight_grid:
        weights = SelectionWeights(bw, cpu, io)
        testbed = build_testbed(seed=seed, dynamic=True, topology=topology)
        client, replica_hosts = testbed.roles
        register_replicas(testbed, "file-a", replica_hosts, file_size_mb)
        testbed.warm_up(warmup)
        selector = CostModelSelector(
            testbed.grid, testbed.information, weights=weights
        )
        result = run_selection_trace(
            testbed, selector, client, "file-a",
            rounds=rounds, gap=gap,
        )
        rows.append({
            "BW_W": bw,
            "CPU_W": cpu,
            "IO_W": io,
            "mean_fetch_seconds": result.mean_seconds,
            "oracle_agreement": result.oracle_agreement,
            "is_paper_choice": (bw, cpu, io) == (0.8, 0.1, 0.1),
        })

    return ExperimentResult(
        experiment_id="abl_weights",
        title=(
            f"Weight sweep: {rounds} fetches of a {file_size_mb} MB "
            "file per weight triple, dynamic load"
        ),
        headers=[
            "BW_W", "CPU_W", "IO_W", "mean_fetch_seconds",
            "oracle_agreement", "is_paper_choice",
        ],
        rows=rows,
        notes=[
            "Expected shape: bandwidth-dominant weightings cluster near "
            "the best times; load-only weightings (BW_W -> 0) degrade "
            "sharply — supporting the paper's 80/10/10 choice.",
        ],
    )
