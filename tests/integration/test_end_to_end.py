"""Integration tests: whole-system scenarios across all subsystems."""

from repro.gridftp import (
    BackoffPolicy,
    GridFtpClient,
    ReliableFileTransfer,
    TransferFaultInjector,
)
from repro.hosts import CPULoadGenerator, DiskLoadGenerator
from repro.network import CrossTrafficProcess
from repro.testbed import build_testbed
from repro.testbed.topology import FLAT_ROUTER
from repro.units import MiB, megabytes

from tests.conftest import run_process


def test_paper_narrative_end_to_end():
    """The complete story of the paper in one simulation: populate the
    catalog, run monitoring under dynamic load, select with the cost
    model, fetch with parallel GridFTP."""
    testbed = build_testbed(seed=21, dynamic=True)
    grid = testbed.grid
    catalog = testbed.catalog

    # A curator at alpha2 publishes a dataset and replicates it out
    # with server-to-server GridFTP copies.
    size = megabytes(64)
    grid.host("alpha2").filesystem.create("dataset", size)
    catalog.create_logical_file("dataset", size)
    catalog.register_replica("dataset", "alpha2")
    curator = GridFtpClient(grid, "alpha2")
    for target in ["hit1", "lz01"]:
        run_process(grid, curator.third_party("alpha2", target, "dataset"))
        catalog.register_replica("dataset", target)
    assert len(catalog.locations("dataset")) == 3

    testbed.warm_up(120.0)

    # A scientist at hit0 fetches it: the HIT-local replica should win
    # (same-site 1 Gbps LAN beats everything).
    decision, record = run_process(
        grid,
        testbed.selection_server.fetch("hit0", "dataset", parallelism=4),
    )
    assert decision.chosen == "hit1"
    assert record.source == "hit1"
    assert record.streams == 4
    assert "dataset" in grid.host("hit0").filesystem

    # Selection consulted real monitoring, not defaults.
    factors = decision.scores[0].factors
    assert factors.forecaster is not None
    assert factors.forecaster != "live-probe"


def test_concurrent_applications_contend_and_all_finish():
    testbed = build_testbed(seed=22)
    grid = testbed.grid
    size = megabytes(32)
    testbed.catalog.create_logical_file("hot-file", size)
    for host_name in ["alpha4", "hit0"]:
        grid.host(host_name).filesystem.create("hot-file", size)
        testbed.catalog.register_replica("hot-file", host_name)
    testbed.warm_up(60.0)

    clients = ["alpha1", "alpha2", "hit2", "hit3", "lz01", "lz03"]
    results = {}

    def one_access(client_name):
        _, record = yield from testbed.selection_server.fetch(
            client_name, "hot-file"
        )
        results[client_name] = record

    from repro.sim import AllOf

    processes = [grid.sim.process(one_access(name)) for name in clients]
    grid.sim.run(until=AllOf(grid.sim, processes))

    assert sorted(results) == sorted(clients)
    for name in clients:
        assert "hot-file" in grid.host(name).filesystem
        assert results[name].elapsed > 0


def test_contention_is_visible_in_transfer_times():
    """Five simultaneous fetches from one source share its uplink."""
    testbed = build_testbed(seed=23, monitoring=False)
    grid = testbed.grid
    grid.host("hit0").filesystem.create("f", megabytes(64))

    solo_client = GridFtpClient(grid, "alpha1")
    solo = run_process(grid, solo_client.get("hit0", "f", "solo"))

    times = []

    def fetch(client_name):
        client = GridFtpClient(grid, client_name)
        record = yield from client.get("hit0", "f", f"crowd-{client_name}")
        times.append(record.elapsed)

    for name in ["alpha1", "alpha2", "alpha3", "alpha4"]:
        grid.sim.process(fetch(name))
    grid.run()
    # Four sharers: each substantially slower than the solo run.
    assert min(times) > solo.elapsed * 1.5


def test_reliable_transfer_on_real_testbed_under_faults():
    testbed = build_testbed(seed=24, monitoring=False)
    grid = testbed.grid
    grid.host("hit0").filesystem.create("big", megabytes(128))
    client = GridFtpClient(grid, "alpha1")
    injector = TransferFaultInjector(grid, mean_time_between_faults=2.0)
    rft = ReliableFileTransfer(
        client, marker_interval_bytes=8 * MiB, max_attempts=200,
        backoff=BackoffPolicy.constant(2.0), fault_injector=injector,
    )
    result = run_process(grid, rft.get("hit0", "big", parallelism=4))
    assert grid.host("alpha1").filesystem.size_of("big") == megabytes(128)
    assert result.faults > 0
    assert grid.network.active_flows == []


def _start_bursty_load(testbed):
    """Idle-or-saturated load on every host and WAN uplink, switching
    every 20 s on average."""
    grid = testbed.grid
    rebalance = grid.network.rebalance
    for host in grid.hosts.values():
        CPULoadGenerator(
            grid.sim, host.cpu,
            levels=[lvl * host.cpu.cores for lvl in [0.0, 0.0, 0.9]],
            mean_holding_time=20.0, notify=rebalance,
        )
        DiskLoadGenerator(
            grid.sim, host.disk, levels=[0.0, 0.0, 0.8],
            mean_holding_time=20.0, notify=rebalance,
        )
    for site in testbed.sites.values():
        for direction in [
            (site.switch_name, FLAT_ROUTER),
            (FLAT_ROUTER, site.switch_name),
        ]:
            CrossTrafficProcess(
                grid.sim, grid.network, grid.topology.link(*direction),
                levels=[0.0, 0.0, 0.7], mean_holding_time=20.0,
            )


def test_load_scenarios_shift_selection():
    """Under bursty load the chosen replica varies over time."""
    testbed = build_testbed(seed=25)
    grid = testbed.grid
    size = megabytes(16)
    testbed.catalog.create_logical_file("f", size)
    for host_name in ["alpha4", "hit0"]:
        grid.host(host_name).filesystem.create("f", size)
        testbed.catalog.register_replica("f", host_name)
    _start_bursty_load(testbed)
    testbed.warm_up(120.0)

    chosen = set()
    for _ in range(20):
        decision = run_process(
            grid, testbed.selection_server.select("lz02", "f")
        )
        chosen.add(decision.chosen)
        grid.run(until=grid.sim.now + 60.0)
    # From Li-Zen both candidates are far; load bursts should flip the
    # choice at least once over 20 minutes.
    assert chosen == {"alpha4", "hit0"}


def test_whole_testbed_run_is_deterministic():
    def signature():
        testbed = build_testbed(seed=99, dynamic=True)
        grid = testbed.grid
        size = megabytes(16)
        testbed.catalog.create_logical_file("f", size)
        for host_name in ["alpha4", "hit0", "lz02"]:
            grid.host(host_name).filesystem.create("f", size)
            testbed.catalog.register_replica("f", host_name)
        testbed.warm_up(200.0)
        decision, record = run_process(
            grid, testbed.selection_server.fetch("alpha1", "f")
        )
        return (
            decision.chosen,
            tuple(decision.ranking()),
            round(record.elapsed, 9),
            grid.sim.events_processed,
        )

    assert signature() == signature()
