"""fig_integrity — end-to-end transfer integrity under corruption chaos.

The paper's cost model assumes every replica is *correct*; this exhibit
drops that assumption.  A replica-corruption campaign
(:func:`repro.chaos.campaigns.replica_corruption`) rots, truncates and
version-drifts the three replicas of the Table 1 file while a client
fetches it over the reliable transfer layer, crossed over two switches:

* **verify** — manifest verification in the GridFTP data channel on or
  off (off counts silently delivered corrupt blocks instead);
* **failover** — cross-replica resume via the selection server
  (:meth:`~repro.gridftp.reliable.ReliableFileTransfer.get_logical`)
  versus a source fixed at selection time.

A :class:`~repro.integrity.health.ReplicaHealthRegistry` quarantines
replicas that keep failing verification and a
:class:`~repro.integrity.repair.ReplicaRepairService` re-replicates
them from a verified source in the background, so the full loop —
detect, fail over, quarantine, repair, re-admit — plays out inside
each cell.  Two fault-free cells anchor the baseline: with no
corruption, verification must change nothing (checksum arithmetic is
free next to WAN times), so their timings match the seed exhibits.

Acceptance gates (asserted by ``tests/integrity/test_fig_integrity.py``):
with verify and failover on, every fetch completes fully verified, and
corrupted replicas are quarantined, repaired and re-admitted within the
run.
"""

from repro.chaos import ChaosEngine, replica_corruption
from repro.experiments.base import ExperimentResult
from repro.experiments.harness import register_replicas
from repro.gridftp import (
    BackoffPolicy,
    GridFtpClient,
    ReliableFileTransfer,
    TooManyAttemptsError,
)
from repro.integrity import ReplicaHealthRegistry, ReplicaRepairService
from repro.testbed import build_testbed
from repro.testbed.topology import paper3
from repro.units import megabytes

__all__ = ["run_fig_integrity", "CELLS"]

LOGICAL_NAME = "file-a"

#: (campaign, verify, failover) cells, fault-free baselines first.
CELLS = (
    ("none", True, True),
    ("none", False, True),
    ("replica_corruption", True, True),
    ("replica_corruption", True, False),
    ("replica_corruption", False, True),
    ("replica_corruption", False, False),
)


def _make_rft(grid, client, block_bytes):
    # Markers span two manifest blocks, so a corrupt chunk exercises
    # good-block salvage: the clean half is kept, only the bad block
    # moves again.
    return ReliableFileTransfer(
        GridFtpClient(grid, client),
        marker_interval_bytes=2 * block_bytes,
        max_attempts=12,
        backoff=BackoffPolicy(
            base=2.0, multiplier=2.0, cap=30.0, jitter=0.25
        ),
        attempt_timeout=15.0,
    )


def _run_cell(campaign_name, verify, failover, rounds, gap,
              file_size_mb, seed, warmup, horizon, repair_period):
    """One (campaign, verify, failover) cell on a fresh same-seed grid."""
    testbed = build_testbed(seed=seed)
    grid = testbed.grid
    client, replica_hosts = testbed.roles
    register_replicas(testbed, LOGICAL_NAME, replica_hosts, file_size_mb)
    lfn = testbed.catalog.logical_file(LOGICAL_NAME)
    testbed.warm_up(warmup)

    health = ReplicaHealthRegistry(
        grid, failure_threshold=2, quarantine_seconds=0.5 * horizon
    )
    testbed.selection_server.health = health
    repair = ReplicaRepairService(
        grid, testbed.catalog, GridFtpClient(grid, client), health,
        period=repair_period,
    ).start()

    engine = None
    if campaign_name == "replica_corruption":
        campaign = replica_corruption(
            LOGICAL_NAME, replica_hosts, horizon=horizon
        )
        engine = ChaosEngine(
            grid, campaign, testbed=testbed, health=health
        ).start()

    stats = {
        "completed": 0, "failed": 0, "elapsed": 0.0, "faults": 0,
        "corrupt_faults": 0, "failovers": 0, "retransmitted": 0.0,
        "delivered_corrupt": 0, "all_verified": True,
    }

    def trace():
        for _ in range(rounds):
            rft = _make_rft(grid, client, lfn.manifest.block_bytes)
            try:
                if failover:
                    result = yield from rft.get_logical(
                        LOGICAL_NAME, testbed.selection_server,
                        "integrity-incoming", verify=verify,
                    )
                else:
                    decision = yield from testbed.selection_server.select(
                        client, LOGICAL_NAME
                    )
                    result = yield from rft.get(
                        decision.chosen, LOGICAL_NAME,
                        "integrity-incoming",
                        manifest=lfn.manifest if verify else None,
                        health=health if verify else None,
                    )
            except TooManyAttemptsError:
                stats["failed"] += 1
            else:
                stats["completed"] += 1
                stats["elapsed"] += result.elapsed
                stats["faults"] += result.faults
                stats["corrupt_faults"] += result.corrupt_faults
                stats["failovers"] += result.failovers
                stats["retransmitted"] += result.bytes_retransmitted
                stats["delivered_corrupt"] += \
                    result.delivered_corrupt_blocks
                if verify and result.verified_bytes < result.payload_bytes:
                    stats["all_verified"] = False
            fs = grid.host(client).filesystem
            for leftover in ("integrity-incoming",
                             "integrity-incoming.chunk"):
                if leftover in fs:
                    fs.delete(leftover)
            yield grid.sim.timeout(gap)

    grid.sim.run(until=grid.sim.process(trace()))
    # Let outstanding quarantines heal before judging the repair loop.
    if health.quarantined_replicas():
        grid.sim.run(
            until=grid.sim.process(_drain(grid, repair, health, horizon))
        )
    repair.stop()
    if engine is not None:
        engine.stop()

    completed = stats["completed"]
    return {
        "campaign": campaign_name,
        "verify": "on" if verify else "off",
        "failover": "on" if failover else "off",
        "completed": completed,
        "failed": stats["failed"],
        "mean_fetch_seconds": (
            stats["elapsed"] / completed if completed else float("nan")
        ),
        "corrupt_faults": stats["corrupt_faults"],
        "failovers": stats["failovers"],
        "retransmitted_mb": stats["retransmitted"] / megabytes(1),
        "delivered_corrupt_blocks": stats["delivered_corrupt"],
        "all_verified": stats["all_verified"] if verify else "n/a",
        "quarantines": health.quarantines_total,
        "repairs": len(repair.repairs),
        "readmissions": health.readmissions_total,
        "still_quarantined": len(health.quarantined_replicas()),
    }


def _drain(grid, repair, health, horizon):
    """Run extra repair sweeps until the quarantine list empties (or a
    bounded patience runs out — a cell must never hang the suite)."""
    deadline = grid.sim.now + 0.5 * horizon
    while health.quarantined_replicas() and grid.sim.now < deadline:
        yield grid.sim.timeout(repair.period)
        yield from repair.run_once()


def run_fig_integrity(cells=CELLS, rounds=6, gap=15.0, file_size_mb=64,
                      seed=0, warmup=120.0, horizon=600.0,
                      repair_period=45.0):
    """One row per (campaign, verify, failover) cell.

    Paired comparisons: every cell faces the identical corruption
    timeline and load trajectory (same seed, named random streams).
    """
    rows = [
        _run_cell(
            campaign_name, verify, failover, rounds, gap, file_size_mb,
            seed, warmup, horizon, repair_period,
        )
        for campaign_name, verify, failover in cells
    ]
    client, _ = paper3().default_roles()
    return ExperimentResult(
        experiment_id="fig_integrity",
        title=(
            f"Transfer integrity under replica corruption "
            f"({rounds} fetches of {file_size_mb} MB, client {client})"
        ),
        headers=[
            "campaign", "verify", "failover", "completed", "failed",
            "mean_fetch_seconds", "corrupt_faults", "failovers",
            "retransmitted_mb", "delivered_corrupt_blocks",
            "all_verified", "quarantines", "repairs", "readmissions",
            "still_quarantined",
        ],
        rows=rows,
        notes=[
            "Restart markers span two manifest blocks; a corrupt chunk "
            "keeps its clean block and re-fetches only the bad one.",
            "verify=off counts corrupt blocks silently delivered to "
            "the client — the damage verification exists to prevent.",
            "Quarantined replicas are repaired from a verified source "
            "and re-admitted; still_quarantined should end at 0.",
            "Fault-free cells match the seed exhibits: verification "
            "charges zero sim time.",
        ],
    )
