"""Tests for unreachable-candidate exclusion."""

from repro.testbed import build_testbed
from repro.units import megabytes

from tests.conftest import run_process


def stocked(seed=61):
    testbed = build_testbed(seed=seed)
    size = megabytes(16)
    testbed.catalog.create_logical_file("f", size)
    for name in ["hit0", "lz02"]:
        testbed.grid.host(name).filesystem.create("f", size)
        testbed.catalog.register_replica("f", name)
    return testbed


class TestUnreachableExclusion:
    def test_dead_path_candidate_is_skipped(self):
        testbed = stocked()
        grid = testbed.grid
        testbed.warm_up(60.0)
        # HIT's uplink dies; sensors then observe ~zero bandwidth.
        grid.topology.link("hit-switch", "tanet").set_down()
        grid.topology.link("tanet", "hit-switch").set_down()
        grid.network.rebalance()
        testbed.warm_up(120.0)
        decision = run_process(
            grid, testbed.selection_server.select("alpha1", "f")
        )
        assert decision.chosen == "lz02"
        assert len(decision.scores) == 1  # hit0 excluded outright

    def test_exclusion_can_be_disabled(self):
        testbed = stocked(seed=62)
        testbed.selection_server.exclude_unreachable = False
        grid = testbed.grid
        testbed.warm_up(60.0)
        grid.topology.link("hit-switch", "tanet").set_down()
        grid.topology.link("tanet", "hit-switch").set_down()
        grid.network.rebalance()
        testbed.warm_up(120.0)
        decision = run_process(
            grid, testbed.selection_server.select("alpha1", "f")
        )
        assert len(decision.scores) == 2  # ranked, not excluded

    def test_all_dead_candidates_still_ranked(self):
        """If every candidate is unreachable, fall back to ranking them
        rather than failing (the fetch will stall, but the decision
        machinery should not crash)."""
        testbed = stocked(seed=63)
        grid = testbed.grid
        testbed.warm_up(60.0)
        for switch in ["hit-switch", "lz-switch"]:
            grid.topology.link(switch, "tanet").set_down()
            grid.topology.link("tanet", switch).set_down()
        grid.network.rebalance()
        testbed.warm_up(120.0)
        decision = run_process(
            grid, testbed.selection_server.select("alpha1", "f")
        )
        assert len(decision.scores) == 2
