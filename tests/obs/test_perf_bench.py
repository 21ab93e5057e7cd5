"""Tests for the process measurements in ``repro.obs.perf.bench``."""

from repro.obs.perf.bench import environment_fingerprint, peak_rss_bytes


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
