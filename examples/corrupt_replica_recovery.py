#!/usr/bin/env python3
"""Bit rot mid-transfer: detect, fail over, quarantine, repair.

The Table 1 file is replicated at `alpha4`, `hit0` and `lz02`, and
`alpha1` fetches it through the selection server.  Mid-transfer, bit
rot silently corrupts a block of the preferred (same-site) replica at
`alpha4`.  Watch the whole integrity loop close:

1. the GridFTP data channel verifies every block against the file's
   checksum manifest and catches the rot — only the bad block is
   wasted, the clean blocks of the chunk are kept;
2. the reliable transfer fails over through the selection server to a
   surviving replica and completes, fully verified;
3. the health registry quarantines the rotten replica, so selection
   stops routing to it;
4. the repair service re-replicates it from a verified source, audits
   the result and re-admits it — and the next fetch uses it again.

Run:  python examples/corrupt_replica_recovery.py
"""

from repro.gridftp import BackoffPolicy, GridFtpClient, ReliableFileTransfer
from repro.integrity import ReplicaHealthRegistry, ReplicaRepairService
from repro.testbed import build_testbed
from repro.units import MiB, megabytes

LOGICAL_NAME = "file-a"
REPLICAS = ("alpha4", "hit0", "lz02")
CLIENT = "alpha1"
SIZE_MB = 64


def describe(result):
    return (
        f"{result.elapsed:6.1f}s via {'->'.join(result.sources)}  "
        f"corrupt_faults={result.corrupt_faults} "
        f"failovers={result.failovers} "
        f"retransmitted={result.bytes_retransmitted / MiB:.0f}MiB "
        f"verified={result.verified_bytes / MiB:.0f}MiB"
    )


def main():
    testbed = build_testbed(seed=7)
    grid = testbed.grid
    size = megabytes(SIZE_MB)
    testbed.catalog.create_logical_file(LOGICAL_NAME, size)
    for host_name in REPLICAS:
        grid.host(host_name).filesystem.create(LOGICAL_NAME, size)
        testbed.catalog.register_replica(LOGICAL_NAME, host_name)
    testbed.warm_up(60.0)

    health = ReplicaHealthRegistry(
        grid, failure_threshold=1, quarantine_seconds=1800.0
    )
    testbed.selection_server.health = health
    client = GridFtpClient(grid, CLIENT)
    repair = ReplicaRepairService(
        grid, testbed.catalog, client, health, period=30.0
    )
    rft = ReliableFileTransfer(
        client,
        marker_interval_bytes=16 * MiB,
        backoff=BackoffPolicy.constant(2.0),
    )

    def rot_mid_transfer():
        # Two chunks land clean, then rot hits a block still in flight.
        yield grid.sim.timeout(2.0)
        stored = grid.host("alpha4").filesystem.stored(LOGICAL_NAME)
        stored.corrupt_range(megabytes(40), megabytes(40) + 1.0)
        print(f"[{grid.sim.now:7.1f}s] !! bit rot hits alpha4's copy "
              f"at byte {megabytes(40):.0f}")

    def scenario():
        print(f"[{grid.sim.now:7.1f}s] fetch #1 (rot arrives mid-flight)")
        grid.sim.process(rot_mid_transfer())
        result = yield from rft.get_logical(
            LOGICAL_NAME, testbed.selection_server, "incoming"
        )
        print(f"[{grid.sim.now:7.1f}s]    {describe(result)}")
        quarantined = health.quarantined_replicas()
        print(f"[{grid.sim.now:7.1f}s] quarantined: "
              f"{[r.host_name for r in quarantined]}")

        grid.host(CLIENT).filesystem.delete("incoming")
        completed = yield from repair.run_once()
        for record in completed:
            logical, host, source = repair.repairs[-1]
            print(f"[{grid.sim.now:7.1f}s] repaired {logical!r} at "
                  f"{host} from {source}; audit clean, re-admitted")
        print(f"[{grid.sim.now:7.1f}s] still quarantined: "
              f"{[r.host_name for r in health.quarantined_replicas()]}")

        print(f"[{grid.sim.now:7.1f}s] fetch #2 (healed grid)")
        result = yield from rft.get_logical(
            LOGICAL_NAME, testbed.selection_server, "incoming-2"
        )
        print(f"[{grid.sim.now:7.1f}s]    {describe(result)}")

    grid.sim.run(until=grid.sim.process(scenario()))
    print(f"\nhealth: {health.failures_recorded} verification "
          f"failure(s), {health.quarantines_total} quarantine(s), "
          f"{health.readmissions_total} readmission(s), "
          f"{len(repair.repairs)} repair(s)")


if __name__ == "__main__":
    main()
