"""Tests for the process measurements in ``repro.obs.perf.bench``."""

import pytest

from repro.obs.perf.bench import (
    SimUsageTracker,
    environment_fingerprint,
    peak_rss_bytes,
)
from repro.sim import Simulator


class TestSimUsageTracker:
    def test_collects_and_sums(self):
        with SimUsageTracker() as tracker:
            sim = Simulator(seed=0)

            def ticker():
                for _ in range(5):
                    yield sim.timeout(2.0)

            sim.process(ticker())
            sim.run()
        assert tracker.sims == [sim]
        assert tracker.events_processed == sim.events_processed
        assert tracker.events_scheduled == sim.events_scheduled
        assert tracker.sim_seconds == pytest.approx(sim.now)

    def test_outside_context_not_tracked(self):
        with SimUsageTracker() as tracker:
            pass
        Simulator(seed=0)
        assert tracker.sims == []


class TestProcessFingerprint:
    def test_environment_fingerprint(self):
        environment = environment_fingerprint()
        assert environment["python"]
        assert environment["platform"]
        assert environment["cpu_count"] >= 1
        # git_sha may be None outside a checkout, but the key exists.
        assert "git_sha" in environment

    def test_peak_rss_positive(self):
        assert peak_rss_bytes() > 0
