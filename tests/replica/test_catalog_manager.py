"""Tests for the replica catalog."""

import pytest

from repro.grid import DataGrid
from repro.replica import LogicalFileNotFoundError, ReplicaCatalog
from repro.units import megabytes, mbit_per_s

from tests.conftest import run_process


def make_grid():
    grid = DataGrid(seed=3)
    for name in ["a", "b", "c"]:
        grid.add_host(name, name.upper(), disk_capacity=100e9)
    grid.add_router("core")
    for name in ["a", "b", "c"]:
        grid.connect(name, "core", mbit_per_s(100), latency=0.002)
    return grid


class TestCatalog:
    def test_create_and_locate(self):
        grid = make_grid()
        catalog = ReplicaCatalog(grid, "a")
        catalog.create_logical_file("f", megabytes(10))
        catalog.register_replica("f", "b")
        catalog.register_replica("f", "c")
        hosts = [e.host_name for e in catalog.locations("f")]
        assert hosts == ["b", "c"]
        assert catalog.logical_file("f").size_bytes == megabytes(10)

    def test_duplicate_logical_file_rejected(self):
        grid = make_grid()
        catalog = ReplicaCatalog(grid, "a")
        catalog.create_logical_file("f", 1.0)
        with pytest.raises(ValueError):
            catalog.create_logical_file("f", 2.0)

    def test_missing_logical_file_errors(self):
        grid = make_grid()
        catalog = ReplicaCatalog(grid, "a")
        with pytest.raises(LogicalFileNotFoundError):
            catalog.locations("ghost")
        with pytest.raises(LogicalFileNotFoundError):
            catalog.register_replica("ghost", "b")

    def test_duplicate_replica_location_rejected(self):
        grid = make_grid()
        catalog = ReplicaCatalog(grid, "a")
        catalog.create_logical_file("f", 1.0)
        catalog.register_replica("f", "b")
        with pytest.raises(ValueError):
            catalog.register_replica("f", "b")

    def test_unknown_host_rejected(self):
        grid = make_grid()
        catalog = ReplicaCatalog(grid, "a")
        catalog.create_logical_file("f", 1.0)
        with pytest.raises(KeyError):
            catalog.register_replica("f", "nowhere")

    def test_attribute_search(self):
        grid = make_grid()
        catalog = ReplicaCatalog(grid, "a")
        catalog.create_logical_file(
            "genome-1", 1.0, attributes={"species": "human"}
        )
        catalog.create_logical_file(
            "genome-2", 1.0, attributes={"species": "mouse"}
        )
        found = catalog.find(species="human")
        assert [f.name for f in found] == ["genome-1"]

    def test_remote_query_charges_rtt(self):
        grid = make_grid()
        catalog = ReplicaCatalog(grid, "a")
        catalog.create_logical_file("f", 1.0)
        catalog.register_replica("f", "c")
        t0 = grid.sim.now
        entries = run_process(grid, catalog.query_locations("b", "f"))
        assert [e.host_name for e in entries] == ["c"]
        assert grid.sim.now - t0 == pytest.approx(
            grid.path("b", "a").rtt
        )
        assert catalog.queries_served == 1

    def test_local_query_is_free(self):
        grid = make_grid()
        catalog = ReplicaCatalog(grid, "a")
        catalog.create_logical_file("f", 1.0)
        t0 = grid.sim.now
        run_process(grid, catalog.query_locations("a", "f"))
        assert grid.sim.now == t0

