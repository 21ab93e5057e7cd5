"""Tests for workload generation: file popularity."""

import pytest

from repro.sim.random_streams import RandomStream
from repro.workloads import ZipfPopularity


def stream(name="test"):
    return RandomStream(99, name)


class TestZipf:
    def test_rank_one_dominates(self):
        pop = ZipfPopularity(["a", "b", "c", "d"], exponent=1.5)
        s = stream()
        counts = {name: 0 for name in "abcd"}
        for _ in range(2000):
            counts[pop.sample(s)] += 1
        assert counts["a"] > counts["b"] > counts["d"]

    def test_zero_exponent_is_uniformish(self):
        pop = ZipfPopularity(["a", "b"], exponent=0.0)
        s = stream()
        counts = {"a": 0, "b": 0}
        for _ in range(2000):
            counts[pop.sample(s)] += 1
        assert abs(counts["a"] - counts["b"]) < 300

    def test_validation(self):
        with pytest.raises(ValueError):
            ZipfPopularity([])
        with pytest.raises(ValueError):
            ZipfPopularity(["a"], exponent=-1)
