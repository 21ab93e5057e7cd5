"""Tests for reliable transfers (restart markers) and fault injection."""

import pytest

from repro.gridftp import (
    BackoffPolicy,
    GridFtpClient,
    GridFtpServer,
    ReliableFileTransfer,
    TooManyAttemptsError,
    TransferFault,
    TransferFaultInjector,
)
from repro.units import MiB, megabytes, mbit_per_s

from tests.conftest import build_two_host_grid, run_process


def reliable_setup(file_mb=64, marker_mb=16, mtbf=None, max_attempts=10,
                   seed=0):
    grid = build_two_host_grid(
        seed=seed, capacity=mbit_per_s(100), latency=0.0005
    )
    GridFtpServer(grid, "src")
    grid.host("src").filesystem.create("file-a", megabytes(file_mb))
    client = GridFtpClient(grid, "dst")
    injector = None
    if mtbf is not None:
        injector = TransferFaultInjector(grid, mtbf)
    rft = ReliableFileTransfer(
        client, marker_interval_bytes=marker_mb * MiB,
        max_attempts=max_attempts, backoff=BackoffPolicy.constant(1.0),
        fault_injector=injector,
    )
    return grid, rft, injector


class TestFaultInjector:
    def test_guard_interrupts_long_process(self):
        grid = build_two_host_grid(seed=1)
        injector = TransferFaultInjector(grid, mean_time_between_faults=5.0)
        caught = []

        def victim():
            try:
                yield grid.sim.timeout(1e9)
            except Exception as error:  # Interrupt
                caught.append(error.cause)

        proc = grid.sim.process(victim())
        injector.guard(proc)
        grid.run(until=proc)
        assert injector.faults_injected == 1
        assert isinstance(caught[0], TransferFault)

    def test_guard_spares_quick_process(self):
        grid = build_two_host_grid(seed=2)
        injector = TransferFaultInjector(grid, mean_time_between_faults=1e9)

        def quick():
            yield grid.sim.timeout(0.001)

        proc = grid.sim.process(quick())
        injector.guard(proc)
        grid.run()
        assert injector.faults_injected == 0

    def test_validation(self):
        grid = build_two_host_grid()
        with pytest.raises(ValueError):
            TransferFaultInjector(grid, 0.0)

    def test_guard_disarms_cleanly_when_victim_finishes_first(self):
        # Regression: the watchdog used to sleep out its full fault
        # delay even after the guarded process finished, leaving a
        # pending timer that dragged the clock to the abandoned fire
        # time (1e9/2 here on average) and held the queue open.
        grid = build_two_host_grid(seed=2)
        injector = TransferFaultInjector(grid, mean_time_between_faults=1e9)

        def quick():
            yield grid.sim.timeout(0.001)

        proc = grid.sim.process(quick())
        guard = injector.guard(proc)
        grid.run()
        assert injector.faults_injected == 0
        assert not guard.armed
        assert grid.sim.now == pytest.approx(0.001)
        # Nothing half-armed left behind for the leak sweep either.
        from repro.analysis.sanitizers import check_leaks

        assert check_leaks(grid).ok


class TestReliableTransfer:
    def test_fault_free_transfer_completes_in_chunks(self):
        grid, rft, _ = reliable_setup(file_mb=64, marker_mb=16)
        result = run_process(grid, rft.get("src", "file-a"))
        assert result.attempts == 4       # 64 MB / 16 MB markers
        assert result.faults == 0
        assert result.bytes_retransmitted == 0.0
        assert len(result.records) == 4
        assert grid.host("dst").filesystem.size_of("file-a") == megabytes(64)

    def test_transfer_survives_faults_and_resumes(self):
        # MTBF shorter than the whole transfer but longer than a chunk:
        # some chunks die, the transfer still completes.
        grid, rft, injector = reliable_setup(
            file_mb=64, marker_mb=8, mtbf=4.0, max_attempts=100, seed=3
        )
        result = run_process(grid, rft.get("src", "file-a"))
        assert injector.faults_injected > 0
        assert result.faults == injector.faults_injected
        assert result.bytes_retransmitted > 0
        assert grid.host("dst").filesystem.size_of("file-a") == megabytes(64)
        # Only chunk-level progress was lost: retransmission bounded by
        # faults * marker size.
        assert result.bytes_retransmitted <= result.faults * 8 * MiB

    def test_gives_up_after_attempt_budget(self):
        # Faults arrive far faster than a chunk can finish.
        grid, rft, _ = reliable_setup(
            file_mb=64, marker_mb=64, mtbf=0.01, max_attempts=3, seed=4
        )
        with pytest.raises(TooManyAttemptsError):
            run_process(grid, rft.get("src", "file-a"))

    def test_aborted_chunk_frees_network_flows(self):
        grid, rft, _ = reliable_setup(
            file_mb=64, marker_mb=8, mtbf=3.0, max_attempts=100, seed=5
        )
        run_process(grid, rft.get("src", "file-a"))
        # No leaked flows after all the aborts.
        assert grid.network.active_flows == []

    def test_zero_byte_file(self):
        grid, rft, _ = reliable_setup(file_mb=64)
        grid.host("src").filesystem.create("empty", 0.0)
        result = run_process(grid, rft.get("src", "empty"))
        assert result.payload_bytes == 0.0
        assert "empty" in grid.host("dst").filesystem

    def test_reliable_overhead_is_modest_without_faults(self):
        grid, rft, _ = reliable_setup(file_mb=64, marker_mb=16)
        client = GridFtpClient(grid, "dst")
        plain = run_process(
            grid, client.get("src", "file-a", "plain-copy")
        )
        reliable = run_process(grid, rft.get("src", "file-a", "rft-copy"))
        # Chunking costs extra control round trips, nothing dramatic.
        assert reliable.elapsed < plain.elapsed * 2.0

    def test_parameter_validation(self):
        grid, rft, _ = reliable_setup()
        client = GridFtpClient(grid, "dst")
        with pytest.raises(ValueError):
            ReliableFileTransfer(client, marker_interval_bytes=0)
        with pytest.raises(ValueError):
            ReliableFileTransfer(client, max_attempts=0)
        with pytest.raises(ValueError, match="non-negative"):
            ReliableFileTransfer(
                client, backoff=BackoffPolicy.constant(-1.0)
            )
        with pytest.raises(ValueError):
            ReliableFileTransfer(client, attempt_timeout=0.0)


class TestBackoffAndTimeout:
    def test_exponential_backoff_spaces_retries_out(self):
        grid = build_two_host_grid(
            seed=6, capacity=mbit_per_s(100), latency=0.0005
        )
        GridFtpServer(grid, "src")
        grid.host("src").filesystem.create("file-a", megabytes(64))
        constant = ReliableFileTransfer(
            GridFtpClient(grid, "dst"), marker_interval_bytes=8 * MiB,
            max_attempts=100, backoff=BackoffPolicy.constant(1.0),
            fault_injector=TransferFaultInjector(grid, 3.0),
        )
        first = run_process(grid, constant.get("src", "file-a", "one"))

        exponential = ReliableFileTransfer(
            GridFtpClient(grid, "dst"), marker_interval_bytes=8 * MiB,
            max_attempts=100,
            backoff=BackoffPolicy(base=1.0, multiplier=2.0, cap=30.0,
                                  jitter=0.0),
            fault_injector=TransferFaultInjector(grid, 3.0),
        )
        second = run_process(grid, exponential.get("src", "file-a", "two"))
        assert first.faults > 1 and second.faults > 1
        # Same fault process, but geometric delays stretch the retries.
        assert second.elapsed > first.elapsed

    def test_attempt_timeout_rescues_stalled_transfer(self):
        grid = build_two_host_grid(
            seed=7, capacity=mbit_per_s(100), latency=0.0005
        )
        GridFtpServer(grid, "src")
        grid.host("src").filesystem.create("file-a", megabytes(16))
        link = grid.topology.link("src", "dst")

        def saboteur():
            # Cut the path mid-transfer, restore it much later: only a
            # transfer with an attempt watchdog can make progress.
            yield grid.sim.timeout(0.4)
            link.set_down()
            grid.topology.link("dst", "src").set_down()
            grid.network.rebalance()
            yield grid.sim.timeout(20.0)
            link.set_up()
            grid.topology.link("dst", "src").set_up()
            grid.network.rebalance()

        grid.sim.process(saboteur())
        rft = ReliableFileTransfer(
            GridFtpClient(grid, "dst"), marker_interval_bytes=4 * MiB,
            max_attempts=20, backoff=BackoffPolicy.constant(1.0),
            attempt_timeout=3.0,
        )
        result = run_process(grid, rft.get("src", "file-a"))
        assert result.timeouts >= 1
        assert result.faults == result.timeouts
        assert grid.host("dst").filesystem.size_of("file-a") == megabytes(16)

    def test_no_timeout_guard_leaks_after_success(self):
        grid = build_two_host_grid(
            seed=8, capacity=mbit_per_s(100), latency=0.0005
        )
        GridFtpServer(grid, "src")
        grid.host("src").filesystem.create("file-a", megabytes(32))
        rft = ReliableFileTransfer(
            GridFtpClient(grid, "dst"), marker_interval_bytes=8 * MiB,
            max_attempts=5, attempt_timeout=3600.0,
        )
        run_process(grid, rft.get("src", "file-a"))
        from repro.analysis.sanitizers import check_leaks

        assert check_leaks(grid).ok
        # The hour-long watchdogs were disarmed, not slept out.
        assert grid.sim.now < 60.0
