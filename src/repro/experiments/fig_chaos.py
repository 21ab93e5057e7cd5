"""fig_chaos — selection policies under chaos campaigns.

The paper measures replica selection on a healthy grid; this exhibit
measures it on an unhealthy one.  Three canned campaigns
(:mod:`repro.chaos.campaigns`) run against the Table 1 testbed while a
client fetches the replicated file over the reliable transfer layer
(restart markers, exponential backoff with jitter, per-attempt
timeouts).  One row per (campaign, policy): fetches completed and
failed, mean elapsed time, transfer faults survived, bytes
retransmitted, and how often the information service had to serve
degraded factors.

The monitor-blackout campaign doubles as an acceptance gate: every
fetch must complete — selection under a total monitoring outage
degrades to stale/default factors but never breaks.
"""

from repro.chaos import CAMPAIGNS, ChaosEngine
from repro.core.baselines import (
    CostModelSelector,
    ProximitySelector,
    RandomSelector,
)
from repro.experiments.base import ExperimentResult
from repro.experiments.harness import register_replicas
from repro.gridftp import (
    BackoffPolicy,
    GridFtpClient,
    ReliableFileTransfer,
    TooManyAttemptsError,
)
from repro.testbed import build_testbed
from repro.testbed.topology import paper3
from repro.units import megabytes

__all__ = ["run_fig_chaos", "CAMPAIGN_NAMES", "POLICY_NAMES"]

CAMPAIGN_NAMES = ("flaky_wan_link", "hot_spot_server", "monitor_blackout")
POLICY_NAMES = ("cost-model", "proximity", "random")


def _selector(name, testbed):
    factories = {
        "cost-model": lambda: CostModelSelector(
            testbed.grid, testbed.information
        ),
        "proximity": lambda: ProximitySelector(testbed.grid),
        "random": lambda: RandomSelector(testbed.grid),
    }
    if name not in factories:
        raise ValueError(f"unknown policy {name!r}")
    return factories[name]()


def _run_cell(campaign_name, policy_name, rounds, gap, file_size_mb,
              seed, warmup, horizon):
    """One (campaign, policy) pairing on a fresh same-seed testbed."""
    testbed = build_testbed(seed=seed)
    grid = testbed.grid
    client, replica_hosts = testbed.roles
    register_replicas(testbed, "file-a", replica_hosts, file_size_mb)
    testbed.warm_up(warmup)

    campaign = CAMPAIGNS[campaign_name](horizon=horizon)
    engine = ChaosEngine(grid, campaign, testbed=testbed).start()
    selector = _selector(policy_name, testbed)

    stats = {
        "completed": 0, "failed": 0, "elapsed": 0.0, "faults": 0,
        "retransmitted": 0.0,
    }

    def trace():
        for _ in range(rounds):
            candidates = [
                entry.host_name
                for entry in testbed.catalog.locations("file-a")
            ]
            chosen = yield from selector.select(client, candidates)
            rft = ReliableFileTransfer(
                GridFtpClient(grid, client),
                marker_interval_bytes=megabytes(8),
                max_attempts=12,
                backoff=BackoffPolicy(
                    base=2.0, multiplier=2.0, cap=30.0, jitter=0.25
                ),
                # Shorter than the flaky campaign's 20 s outages, so a
                # stalled chunk aborts, backs off and resumes from its
                # marker instead of silently waiting the outage out.
                attempt_timeout=15.0,
            )
            try:
                result = yield from rft.get(
                    chosen, "file-a", "chaos-incoming"
                )
            except TooManyAttemptsError:
                stats["failed"] += 1
            else:
                stats["completed"] += 1
                stats["elapsed"] += result.elapsed
                stats["faults"] += result.faults
                stats["retransmitted"] += result.bytes_retransmitted
            fs = grid.host(client).filesystem
            for leftover in ("chaos-incoming", "chaos-incoming.chunk"):
                if leftover in fs:
                    fs.delete(leftover)
            yield grid.sim.timeout(gap)

    grid.sim.run(until=grid.sim.process(trace()))
    engine.stop()

    completed = stats["completed"]
    return {
        "campaign": campaign_name,
        "policy": policy_name,
        "completed": completed,
        "failed": stats["failed"],
        "mean_fetch_seconds": (
            stats["elapsed"] / completed if completed else float("nan")
        ),
        "transfer_faults": stats["faults"],
        "retransmitted_mb": stats["retransmitted"] / megabytes(1),
        "degraded_factors": testbed.information.fallbacks,
        "chaos_injections": engine.injections,
    }


def run_fig_chaos(campaign_names=CAMPAIGN_NAMES,
                  policy_names=POLICY_NAMES, rounds=8, gap=15.0,
                  file_size_mb=64, seed=0, warmup=120.0, horizon=600.0):
    """One row per (campaign, policy) pairing.

    Paired comparisons: every policy faces the identical campaign
    timeline and load trajectory (same seed, named random streams).
    """
    rows = [
        _run_cell(
            campaign_name, policy_name, rounds, gap, file_size_mb,
            seed, warmup, horizon,
        )
        for campaign_name in campaign_names
        for policy_name in policy_names
    ]
    client, _ = paper3().default_roles()
    return ExperimentResult(
        experiment_id="fig_chaos",
        title=(
            f"Selection policies under chaos campaigns "
            f"({rounds} fetches of {file_size_mb} MB, client {client})"
        ),
        headers=[
            "campaign", "policy", "completed", "failed",
            "mean_fetch_seconds", "transfer_faults", "retransmitted_mb",
            "degraded_factors", "chaos_injections",
        ],
        rows=rows,
        notes=[
            "Reliable transfers: 8 MiB restart markers, exponential "
            "backoff (2s base, x2, 30s cap, 25% jitter), 15s attempt "
            "timeout, 12 attempts tolerated.",
            "monitor_blackout is an acceptance gate: selection runs on "
            "stale/default factors, so failed must be 0 for every "
            "policy.",
            "Paired traces: same seed => same campaign timeline for "
            "every policy.",
        ],
    )
