"""Figure 1 — the replica selection scenario, as an executed trace.

Fig. 1 is an architecture diagram: client → replica catalog → replica
selection server → information server → GridFTP fetch → results to the
user.  The reproduction executes that exact sequence and emits one row
per step with the simulated timestamps, so the diagram becomes a
verifiable trace.
"""

from repro.experiments.base import ExperimentResult
from repro.gridftp.gridftp import GridFtpClient
from repro.testbed import build_testbed
from repro.units import megabytes

__all__ = ["run_fig1"]


def run_fig1(file_size_mb=64, seed=0, warmup=120.0):
    """Execute the Fig. 1 scenario step by step."""
    testbed = build_testbed(seed=seed)
    grid = testbed.grid
    client_host, replica_hosts = testbed.roles
    size = megabytes(file_size_mb)
    testbed.catalog.create_logical_file(
        "file-a", size, attributes={"kind": "biological-db"}
    )
    for host_name in replica_hosts:
        grid.host(host_name).filesystem.create("file-a", size)
        testbed.catalog.register_replica("file-a", host_name)
    testbed.warm_up(warmup)

    steps = []

    def note(step, detail):
        steps.append({
            "step": len(steps) + 1,
            "time_s": grid.sim.now,
            "actor": step,
            "detail": detail,
        })

    def scenario():
        note("application", f"user logged in at {client_host}; requests "
                            f"logical file 'file-a'")
        local = "file-a" in grid.host(client_host).filesystem
        note("application", f"local check: present={local}")

        entries = yield from testbed.catalog.query_locations(
            client_host, "file-a"
        )
        note("replica catalog", "returned physical locations: "
             + ", ".join(e.host_name for e in entries))

        decision = yield from (
            testbed.selection_server.score_candidates(
                client_host, [e.host_name for e in entries]
            )
        )
        note("information server", "provided BW/CPU/IO factors for "
             f"{len(decision.scores)} candidates")
        note("selection server", "cost-model ranking: "
             + " > ".join(decision.ranking()))

        client = GridFtpClient(grid, client_host)
        record = yield from client.get(
            decision.chosen, "file-a", parallelism=2
        )
        note("GridFTP", f"fetched {file_size_mb} MB from "
             f"{decision.chosen} in {record.elapsed:.2f}s "
             f"({record.streams} streams)")
        note("application", "computation proceeds on the local copy; "
                            "results returned to the user")
        return decision, record

    decision, record = grid.sim.run(until=grid.sim.process(scenario()))

    return ExperimentResult(
        experiment_id="fig1",
        title="The replica selection scenario (Fig. 1), executed",
        headers=["step", "time_s", "actor", "detail"],
        rows=steps,
        notes=[
            f"chosen replica: {decision.chosen}; "
            f"end-to-end time {record.finished_at - steps[0]['time_s']:.2f}s",
        ],
    )
