"""Tests for FTP and GridFTP clients/servers end to end."""

import pytest

from repro.gridftp import (
    FtpClient,
    FtpServer,
    GridFtpClient,
    GridFtpServer,
    GSIConfig,
    RemoteFileNotFoundError,
)
from repro.gridftp.errors import InvalidRangeError
from repro.units import megabytes

from tests.conftest import build_two_host_grid, run_process


def grid_with_servers(file_size=megabytes(64), **grid_kwargs):
    grid = build_two_host_grid(**grid_kwargs)
    FtpServer(grid, "src")
    GridFtpServer(grid, "src")
    grid.host("src").filesystem.create("file-a", file_size)
    return grid


class TestFtp:
    def test_get_moves_file(self):
        grid = grid_with_servers()
        client = FtpClient(grid, "dst")
        record = run_process(grid, client.get("src", "file-a"))
        assert record.protocol == "ftp"
        assert record.payload_bytes == megabytes(64)
        assert "file-a" in grid.host("dst").filesystem
        assert record.elapsed > 0
        assert record.streams == 1
        assert record.mode_name == "stream"

    def test_missing_file_raises(self):
        grid = grid_with_servers()
        client = FtpClient(grid, "dst")
        with pytest.raises(RemoteFileNotFoundError):
            run_process(grid, client.get("src", "nope"))

    def test_transfer_time_tracks_bandwidth(self):
        from repro.units import mbit_per_s

        # Short RTT so the 64 KiB TCP window does not cap the stream.
        grid = grid_with_servers(
            file_size=megabytes(100), capacity=mbit_per_s(100),
            latency=0.0005,
        )
        client = FtpClient(grid, "dst")
        record = run_process(grid, client.get("src", "file-a"))
        ideal = megabytes(100) / mbit_per_s(100)
        # Within 20% of line rate (overheads only).
        assert ideal < record.elapsed < ideal * 1.2

    def test_local_rename(self):
        grid = grid_with_servers()
        client = FtpClient(grid, "dst")
        run_process(grid, client.get("src", "file-a", "copy-a"))
        fs = grid.host("dst").filesystem
        assert "copy-a" in fs and "file-a" not in fs

    def test_overwrite_existing_local_file(self):
        grid = grid_with_servers()
        grid.host("dst").filesystem.create("file-a", 10.0)
        client = FtpClient(grid, "dst")
        run_process(grid, client.get("src", "file-a"))
        assert grid.host("dst").filesystem.size_of("file-a") == megabytes(64)

    def test_connection_limit_serialises_clients(self):
        grid = build_two_host_grid()
        FtpServer(grid, "src", max_connections=1)
        grid.host("src").filesystem.create("f", megabytes(10))
        client = FtpClient(grid, "dst")
        records = []

        def fetch():
            rec = yield from client.get("src", "f", f"f{len(records)}")
            records.append(rec)

        grid.sim.process(fetch())
        grid.sim.process(fetch())
        grid.run()
        assert len(records) == 2
        first, second = sorted(records, key=lambda r: r.finished_at)
        # Second couldn't start its data phase until the first released.
        assert second.finished_at > first.finished_at


class TestGridFtp:
    def test_get_moves_file(self):
        grid = grid_with_servers()
        client = GridFtpClient(grid, "dst")
        record = run_process(grid, client.get("src", "file-a"))
        assert record.protocol == "gridftp"
        assert "file-a" in grid.host("dst").filesystem
        assert record.auth_seconds > 0  # GSI handshake happened

    def test_default_is_stream_mode(self):
        grid = grid_with_servers()
        client = GridFtpClient(grid, "dst")
        record = run_process(grid, client.get("src", "file-a"))
        assert record.mode_name == "stream"
        assert record.streams == 1

    def test_parallelism_switches_to_mode_e(self):
        grid = grid_with_servers()
        client = GridFtpClient(grid, "dst")
        record = run_process(
            grid, client.get("src", "file-a", parallelism=4)
        )
        assert record.mode_name == "extended-block"
        assert record.streams == 4
        assert record.wire_bytes > record.payload_bytes

    def test_one_stream_mode_e_differs_from_no_parallelism(self):
        grid = grid_with_servers()
        client = GridFtpClient(grid, "dst")
        record = run_process(
            grid, client.get("src", "file-a", parallelism=1)
        )
        assert record.mode_name == "extended-block"
        assert record.streams == 1

    def test_gridftp_slower_than_ftp_on_small_file_due_to_gsi(self):
        """The Fig. 3 mechanism: fixed GSI cost dominates small files."""
        grid = grid_with_servers(file_size=megabytes(1))
        ftp_rec = run_process(
            grid, FtpClient(grid, "dst").get("src", "file-a", "via-ftp")
        )
        gftp_rec = run_process(
            grid,
            GridFtpClient(grid, "dst").get("src", "file-a", "via-gftp"),
        )
        assert gftp_rec.elapsed > ftp_rec.elapsed
        assert gftp_rec.auth_seconds > ftp_rec.auth_seconds

    def test_gsi_can_be_disabled(self):
        grid = grid_with_servers()
        client = GridFtpClient(
            grid, "dst", gsi=GSIConfig(enabled=False)
        )
        record = run_process(grid, client.get("src", "file-a"))
        assert record.auth_seconds == 0.0

    def test_partial_transfer_fetches_slice(self):
        grid = grid_with_servers(file_size=1000.0)
        client = GridFtpClient(grid, "dst")
        record = run_process(
            grid,
            client.get("src", "file-a", offset=100.0, length=300.0),
        )
        assert record.payload_bytes == 300.0
        assert grid.host("dst").filesystem.size_of("file-a") == 300.0

    def test_partial_transfer_to_end_of_file(self):
        grid = grid_with_servers(file_size=1000.0)
        client = GridFtpClient(grid, "dst")
        record = run_process(
            grid, client.get("src", "file-a", offset=250.0)
        )
        assert record.payload_bytes == 750.0

    def test_partial_transfer_range_validation(self):
        grid = grid_with_servers(file_size=1000.0)
        client = GridFtpClient(grid, "dst")
        for kwargs in [
            {"offset": -1.0},
            {"offset": 2000.0},
            {"offset": 0.0, "length": -5.0},
            {"offset": 900.0, "length": 200.0},
        ]:
            with pytest.raises(InvalidRangeError):
                run_process(grid, client.get("src", "file-a", **kwargs))

    def test_invalid_parallelism_rejected(self):
        grid = grid_with_servers()
        client = GridFtpClient(grid, "dst")
        with pytest.raises(ValueError):
            run_process(grid, client.get("src", "file-a", parallelism=0))
