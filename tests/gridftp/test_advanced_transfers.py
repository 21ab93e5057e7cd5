"""Tests for third-party and striped transfers."""

import pytest

from repro.grid import DataGrid
from repro.gridftp import (
    GridFtpClient,
    GridFtpServer,
    striped_get,
)
from repro.units import megabytes, mbit_per_s

from tests.conftest import run_process


def three_site_grid():
    """Client host c, two server hosts s1/s2, all interconnected."""
    grid = DataGrid(seed=1)
    for name in ["c", "s1", "s2"]:
        grid.add_host(name, name.upper(), disk_bandwidth=500e6,
                      disk_capacity=500e9)
    grid.add_router("core")
    for name in ["c", "s1", "s2"]:
        grid.connect(name, "core", mbit_per_s(100), latency=0.002)
    GridFtpServer(grid, "s1")
    GridFtpServer(grid, "s2")
    grid.host("s1").filesystem.create("data", megabytes(32))
    grid.host("s2").filesystem.create("data", megabytes(32))
    return grid


class TestThirdParty:
    def test_data_lands_on_destination_server(self):
        grid = three_site_grid()
        client = GridFtpClient(grid, "c")
        record = run_process(
            grid, client.third_party("s1", "s2", "data", "copy")
        )
        assert record.protocol == "gridftp-third-party"
        assert record.source == "s1"
        assert record.destination == "s2"
        assert "copy" in grid.host("s2").filesystem
        assert "copy" not in grid.host("c").filesystem

    def test_authenticates_to_both_servers(self):
        grid = three_site_grid()
        client = GridFtpClient(grid, "c")
        single = run_process(
            grid, client.get("s1", "data", "direct")
        )
        third = run_process(
            grid, client.third_party("s1", "s2", "data", "copy")
        )
        assert third.auth_seconds > single.auth_seconds

    def test_third_party_with_parallelism(self):
        grid = three_site_grid()
        client = GridFtpClient(grid, "c")
        record = run_process(
            grid,
            client.third_party("s1", "s2", "data", "c2", parallelism=4),
        )
        assert record.streams == 4
        assert record.mode_name == "extended-block"


class TestStriped:
    def test_striped_pulls_from_all_sources(self):
        grid = three_site_grid()
        client = GridFtpClient(grid, "c")
        record = run_process(
            grid, striped_get(client, ["s1", "s2"], "data")
        )
        assert record.protocol == "gridftp-striped"
        assert record.payload_bytes == megabytes(32)
        assert "data" in grid.host("c").filesystem

    def test_striping_beats_single_source_when_disks_are_slow(self):
        grid = three_site_grid()
        # Make the source disks the bottleneck (2 MB/s each).
        for name in ["s1", "s2"]:
            grid.host(name).disk.bandwidth = 2e6
        client = GridFtpClient(grid, "c")
        single = run_process(
            grid, client.get("s1", "data", "one", parallelism=2)
        )
        striped = run_process(
            grid,
            striped_get(client, ["s1", "s2"], "data", "two",
                        streams_per_stripe=1),
        )
        assert striped.elapsed < single.elapsed

    def test_size_disagreement_rejected(self):
        grid = three_site_grid()
        grid.host("s2").filesystem.delete("data")
        grid.host("s2").filesystem.create("data", megabytes(16))
        client = GridFtpClient(grid, "c")
        with pytest.raises(ValueError):
            run_process(grid, striped_get(client, ["s1", "s2"], "data"))

    def test_empty_source_list_rejected(self):
        grid = three_site_grid()
        client = GridFtpClient(grid, "c")
        with pytest.raises(ValueError):
            run_process(grid, striped_get(client, [], "data"))

