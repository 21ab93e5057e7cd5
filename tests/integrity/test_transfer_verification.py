"""End-to-end verification in the transfer path: corrupt-block
detection, good-block salvage, cross-replica failover, version-tagged
restart markers and the ``retry_after`` hint."""

import pytest

from repro.chaos import Campaign, ChaosEngine, EventSpec, Schedule
from repro.core.server import NoLiveReplicaError
from repro.gridftp import (
    BackoffPolicy,
    CorruptBlockError,
    GridFtpClient,
    GridFtpServer,
    ReliableFileTransfer,
    RetryBudgetExhaustedError,
    TooManyAttemptsError,
)
from repro.integrity import ChecksumManifest, ReplicaHealthRegistry
from repro.testbed import build_testbed
from repro.units import MiB, megabytes

from tests.conftest import build_two_host_grid, run_process

BLOCK = 8 * MiB


def fixed_setup(file_mb=64, seed=0):
    grid = build_two_host_grid(seed=seed)
    GridFtpServer(grid, "src")
    size = megabytes(file_mb)
    stored = grid.host("src").filesystem.create("file-a", size)
    manifest = ChecksumManifest("file-a", size, block_bytes=BLOCK)
    client = GridFtpClient(grid, "dst")
    rft = ReliableFileTransfer(
        client, marker_interval_bytes=2 * BLOCK, max_attempts=6,
        backoff=BackoffPolicy.constant(1.0),
    )
    return grid, rft, stored, manifest


def stocked_testbed(seed=7, file_mb=64, **replica_versions):
    testbed = build_testbed(seed=seed)
    size = megabytes(file_mb)
    testbed.catalog.create_logical_file("file-a", size)
    for host_name in ("alpha4", "hit0", "lz02"):
        stored = testbed.grid.host(host_name).filesystem.create(
            "file-a", size
        )
        stored.version = replica_versions.get(host_name, 0)
        testbed.catalog.register_replica("file-a", host_name)
    testbed.warm_up(60.0)
    return testbed


class TestClientVerification:
    def test_clean_get_verifies_and_costs_nothing_extra(self):
        grid, rft, _, manifest = fixed_setup()
        plain = run_process(grid, rft.get("src", "file-a", "plain"))
        verified = run_process(
            grid, rft.get("src", "file-a", "checked", manifest=manifest)
        )
        assert verified.verified_bytes == verified.payload_bytes
        assert verified.corrupt_faults == 0
        # Checksum arithmetic is free next to the wire time.
        assert verified.elapsed == pytest.approx(plain.elapsed)

    def test_corrupt_block_raises_with_good_spans(self):
        grid, _, stored, manifest = fixed_setup()
        stored.corrupt_range(BLOCK + 1.0, BLOCK + 2.0)   # inside block 1
        client = GridFtpClient(grid, "dst")
        with pytest.raises(CorruptBlockError) as exc:
            run_process(
                grid,
                client.get("src", "file-a", "out", manifest=manifest),
            )
        error = exc.value
        assert error.block_index == 1
        assert error.block_start == pytest.approx(BLOCK)
        # Block 0 hashed clean before the rot was hit.
        assert (0.0, BLOCK) in [tuple(s) for s in error.good_spans]

    def test_persistent_corruption_quarantines_then_gives_up(self):
        grid, rft, stored, manifest = fixed_setup()
        stored.corrupt_range(BLOCK, BLOCK + 1.0)
        health = ReplicaHealthRegistry(grid, failure_threshold=2)
        with pytest.raises(TooManyAttemptsError):
            run_process(
                grid,
                rft.get("src", "file-a", "out", manifest=manifest,
                        health=health),
            )
        assert health.is_quarantined("file-a", "src")
        assert health.failures_recorded >= 2

    def test_salvaged_blocks_bound_the_retransmission(self):
        """A corrupt chunk keeps its clean blocks: once the replica is
        healed, only the bad block (and bytes not yet fetched) move."""
        grid, rft, stored, manifest = fixed_setup()
        stored.corrupt_range(BLOCK, BLOCK + 1.0)

        def heal_later():
            yield grid.sim.timeout(8.0)
            stored.restore_pristine(0)

        grid.sim.process(heal_later())
        result = run_process(
            grid, rft.get("src", "file-a", "out", manifest=manifest)
        )
        assert result.corrupt_faults >= 1
        assert result.verified_bytes == result.payload_bytes
        # Each corrupt fault wastes at most the one bad block.
        assert result.bytes_retransmitted <= \
            result.corrupt_faults * BLOCK + 1e-6


class TestReplicaFailover:
    def test_failover_completes_verified_refetching_at_most_one_block(self):
        testbed = stocked_testbed()
        grid = testbed.grid
        stored = grid.host("alpha4").filesystem.stored("file-a")
        # Rot block 1: block 0 of the first chunk still hashes clean,
        # so the resume point is one block below the chunk end.
        stored.corrupt_range(BLOCK, BLOCK + 1.0)
        health = ReplicaHealthRegistry(grid, failure_threshold=2)
        testbed.selection_server.health = health
        rft = ReliableFileTransfer(
            GridFtpClient(grid, "alpha1"),
            marker_interval_bytes=2 * BLOCK, max_attempts=8,
            backoff=BackoffPolicy.constant(1.0),
        )
        result = run_process(
            grid,
            rft.get_logical("file-a", testbed.selection_server,
                            "incoming", verify=True),
        )
        assert result.corrupt_faults >= 1
        assert result.failovers >= 1
        assert result.sources[0] == "alpha4"      # same-site pick first
        assert result.verified_bytes == result.payload_bytes
        assert result.bytes_retransmitted <= \
            result.corrupt_faults * BLOCK + 1e-6

    def test_verification_off_delivers_corruption_silently(self):
        testbed = stocked_testbed()
        grid = testbed.grid
        stored = grid.host("alpha4").filesystem.stored("file-a")
        stored.corrupt_range(0.0, stored.size_bytes)
        rft = ReliableFileTransfer(
            GridFtpClient(grid, "alpha1"),
            marker_interval_bytes=2 * BLOCK,
            backoff=BackoffPolicy.constant(1.0),
        )
        result = run_process(
            grid,
            rft.get_logical("file-a", testbed.selection_server,
                            "incoming", verify=False),
        )
        assert result.corrupt_faults == 0
        assert result.failovers == 0
        assert result.delivered_corrupt_blocks >= 1

    def test_markers_never_cross_a_version_change(self):
        """Regression: restart markers recorded against the abandoned
        replica's content version are discarded (and those bytes moved
        again) when failover lands on a different version."""
        testbed = stocked_testbed(alpha4=1)   # alpha4 is a stale v1 copy
        grid = testbed.grid
        campaign = Campaign("kill-first-choice", [
            EventSpec("crash", "host_crash", Schedule.at(2.0),
                      target="alpha4", duration=400.0),
        ], horizon=500.0)
        engine = ChaosEngine(grid, campaign, testbed=testbed).start()
        rft = ReliableFileTransfer(
            GridFtpClient(grid, "alpha1"),
            marker_interval_bytes=BLOCK, max_attempts=12,
            backoff=BackoffPolicy.constant(1.0), attempt_timeout=10.0,
        )
        result = run_process(
            grid,
            rft.get_logical("file-a", testbed.selection_server,
                            "incoming", verify=False),
        )
        engine.stop()
        assert result.failovers >= 1
        assert result.sources[0] == "alpha4"
        # v1 markers died with the failover; bytes moved again.
        assert result.bytes_retransmitted > 0.0
        local = grid.host("alpha1").filesystem.stored("incoming")
        assert local.version == 0


class TestRetryAfterHint:
    @staticmethod
    def quarantined_rft(**rft_options):
        """Every replica quarantined for 40 s, and an RFT to fetch it."""
        testbed = stocked_testbed()
        health = ReplicaHealthRegistry(
            testbed.grid, failure_threshold=1, quarantine_seconds=40.0
        )
        testbed.selection_server.health = health
        for host_name in ("alpha4", "hit0", "lz02"):
            health.quarantine("file-a", host_name)
        rft = ReliableFileTransfer(
            GridFtpClient(testbed.grid, "alpha1"),
            marker_interval_bytes=2 * BLOCK, **rft_options,
        )
        return testbed, rft

    def test_selection_error_carries_the_hint(self):
        testbed, _ = self.quarantined_rft()
        with pytest.raises(NoLiveReplicaError) as exc:
            run_process(
                testbed.grid,
                testbed.selection_server.select("alpha1", "file-a"),
            )
        assert exc.value.retry_after == pytest.approx(40.0)

    def test_transfer_waits_out_the_hint_instead_of_backoff(self):
        testbed, rft = self.quarantined_rft(
            backoff=BackoffPolicy.constant(1.0)
        )
        grid = testbed.grid
        start = grid.sim.now
        result = run_process(
            grid,
            rft.get_logical("file-a", testbed.selection_server,
                            "incoming", verify=True),
        )
        # One no-live-replica wait of exactly the quarantine window
        # (the 1s generic backoff would have retried 40x blindly).
        assert result.no_replica_waits == 1
        assert grid.sim.now - start >= 40.0
        assert result.verified_bytes == result.payload_bytes

    def test_gives_up_at_the_attempt_cap_with_no_live_replica(self):
        testbed, rft = self.quarantined_rft(
            max_attempts=1, backoff=BackoffPolicy.constant(1.0)
        )
        with pytest.raises(TooManyAttemptsError) as exc:
            run_process(
                testbed.grid,
                rft.get_logical("file-a", testbed.selection_server),
            )
        assert not isinstance(exc.value, RetryBudgetExhaustedError)
        assert "(no live replica)" in str(exc.value)
        assert isinstance(exc.value.__cause__, NoLiveReplicaError)

    def test_hint_beyond_the_wait_budget_exhausts_it(self):
        policy = BackoffPolicy(base=1.0, jitter=0.5, max_total_wait=10.0)

        def no_jitter_draw(*args, **kwargs):
            pytest.fail("the retry_after hint replaces the backoff delay")

        policy.delay = no_jitter_draw
        testbed, rft = self.quarantined_rft(backoff=policy)
        with pytest.raises(RetryBudgetExhaustedError) as exc:
            run_process(
                testbed.grid,
                rft.get_logical("file-a", testbed.selection_server),
            )
        assert exc.value.reason == "max-total-wait"
        assert exc.value.attempts == 1
        assert exc.value.waited == 0.0
        assert isinstance(exc.value.__cause__, NoLiveReplicaError)
