"""Tests for quarantine-driven replica repair."""

import pytest

from repro.analysis.sanitizers import check_leaks
from repro.gridftp import GridFtpClient
from repro.integrity import ReplicaHealthRegistry, ReplicaRepairService
from repro.testbed import build_testbed
from repro.units import megabytes

from tests.conftest import run_process

REPLICAS = ("alpha4", "hit0", "lz02")


def repair_setup(seed=11, file_mb=32):
    testbed = build_testbed(seed=seed)
    grid = testbed.grid
    size = megabytes(file_mb)
    testbed.catalog.create_logical_file("file-a", size)
    for host_name in REPLICAS:
        grid.host(host_name).filesystem.create("file-a", size)
        testbed.catalog.register_replica("file-a", host_name)
    testbed.warm_up(30.0)
    health = ReplicaHealthRegistry(grid, failure_threshold=1)
    client = GridFtpClient(grid, "alpha1")
    repair = ReplicaRepairService(
        grid, testbed.catalog, client, health, period=30.0
    )
    return testbed, health, client, repair


def corrupt_replica(testbed, host_name):
    stored = testbed.grid.host(host_name).filesystem.stored("file-a")
    stored.corrupt_range(0.0, stored.size_bytes)
    return stored


class TestRepairSweep:
    def test_repairs_from_verified_source_and_readmits(self):
        testbed, health, _, repair = repair_setup()
        corrupt_replica(testbed, "alpha4")
        health.quarantine("file-a", "alpha4")
        completed = run_process(testbed.grid, repair.run_once())
        assert [r.host_name for r in completed] == ["alpha4"]
        assert repair.repairs[0][0] == "file-a"
        assert repair.repairs[0][2] in ("hit0", "lz02")
        # The transfer replaced the rotten copy with a clean one.
        healed = testbed.grid.host("alpha4").filesystem.stored("file-a")
        assert healed.is_pristine
        assert not health.is_quarantined("file-a", "alpha4")
        assert health.readmissions_total == 1

    def test_no_verified_source_keeps_quarantine(self):
        testbed, health, _, repair = repair_setup()
        for host_name in REPLICAS:
            corrupt_replica(testbed, host_name)
        health.quarantine("file-a", "alpha4")
        completed = run_process(testbed.grid, repair.run_once())
        assert completed == []
        assert health.is_quarantined("file-a", "alpha4")
        assert repair.repairs == []

    def test_corrupt_source_is_never_chosen(self):
        testbed, health, _, repair = repair_setup()
        corrupt_replica(testbed, "alpha4")
        corrupt_replica(testbed, "hit0")
        health.quarantine("file-a", "alpha4")
        run_process(testbed.grid, repair.run_once())
        # lz02 held the only clean copy.
        assert repair.repairs[0][2] == "lz02"

    def test_replica_stays_fetchable_while_repair_in_flight(self):
        """Regression: the repair used to delete the bad physical file
        before the replacement transfer, leaving a window where fetches
        hit a missing file."""
        testbed, health, _, repair = repair_setup()
        corrupt_replica(testbed, "alpha4")
        health.quarantine("file-a", "alpha4")
        grid = testbed.grid
        fs = grid.host("alpha4").filesystem

        def sweep_and_watch():
            sweep = grid.sim.process(repair.run_once())
            while sweep.is_alive:
                assert "file-a" in fs
                yield grid.sim.timeout(0.05)
            yield sweep

        run_process(grid, sweep_and_watch())
        assert repair.repairs

    def test_unregistered_replica_is_dropped_from_quarantine(self):
        testbed, health, _, repair = repair_setup()
        # hit1 holds no replica of file-a in the catalog.
        health.quarantine("file-a", "hit1")
        completed = run_process(testbed.grid, repair.run_once())
        assert completed == []
        assert not health.is_quarantined("file-a", "hit1")

    def test_validation(self):
        testbed, health, client, _ = repair_setup()
        with pytest.raises(ValueError):
            ReplicaRepairService(
                testbed.grid, testbed.catalog, client, health,
                period=0.0,
            )


class TestPeriodicDriver:
    def test_background_sweep_heals_and_stops_clean(self):
        testbed, health, _, repair = repair_setup()
        grid = testbed.grid
        corrupt_replica(testbed, "alpha4")
        health.quarantine("file-a", "alpha4")
        repair.start()

        def wait():
            yield grid.sim.timeout(3 * repair.period)

        run_process(grid, wait())
        repair.stop()
        assert repair.repairs
        assert not health.is_quarantined("file-a", "alpha4")
        # No timer left behind for the leak sweep.
        assert check_leaks(grid).ok

    def test_double_start_rejected(self):
        testbed, _, _, repair = repair_setup()
        repair.start()
        with pytest.raises(RuntimeError):
            repair.start()
        repair.stop()

