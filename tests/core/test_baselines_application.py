"""Tests for the baseline selectors."""

import pytest

from repro.core import (
    BandwidthOnlySelector,
    CostModelSelector,
    LeastLoadedSelector,
    OracleSelector,
    ProximitySelector,
    RandomSelector,
    RoundRobinSelector,
)
from repro.testbed import build_testbed
from repro.units import megabytes

from tests.conftest import run_process

CANDIDATES = ["alpha4", "hit0", "lz02"]


@pytest.fixture(scope="module")
def warm_testbed():
    testbed = build_testbed(seed=11)
    size = megabytes(32)
    testbed.catalog.create_logical_file("file-a", size)
    for host_name in CANDIDATES:
        testbed.grid.host(host_name).filesystem.create("file-a", size)
        testbed.catalog.register_replica("file-a", host_name)
    testbed.warm_up(60.0)
    return testbed


def test_random_selector_covers_candidates(warm_testbed):
    selector = RandomSelector(warm_testbed.grid)
    seen = set()
    for _ in range(50):
        choice = run_process(
            warm_testbed.grid, selector.select("alpha1", CANDIDATES)
        )
        seen.add(choice)
    assert seen == set(CANDIDATES)


def test_round_robin_cycles():
    selector = RoundRobinSelector()
    testbed = build_testbed(seed=1, monitoring=False)
    picks = [
        run_process(testbed.grid, selector.select("alpha1", CANDIDATES))
        for _ in range(6)
    ]
    assert picks == sorted(CANDIDATES) * 2


def test_proximity_prefers_same_site(warm_testbed):
    selector = ProximitySelector(warm_testbed.grid)
    choice = run_process(
        warm_testbed.grid, selector.select("alpha1", CANDIDATES)
    )
    assert choice == "alpha4"


def test_least_loaded_ignores_network(warm_testbed):
    grid = warm_testbed.grid
    selector = LeastLoadedSelector(grid, warm_testbed.information)
    # Load every candidate except the far, slow one.
    grid.host("alpha4").cpu.set_background_busy(2.0)
    grid.host("hit0").cpu.set_background_busy(1.0)
    grid.host("lz02").cpu.set_background_busy(0.0)
    warm_testbed.giis.invalidate()
    choice = run_process(grid, selector.select("alpha1", CANDIDATES))
    assert choice == "lz02"  # idle CPU, terrible network: its blind spot
    for name in CANDIDATES:
        grid.host(name).cpu.set_background_busy(0.0)
    warm_testbed.giis.invalidate()


def test_bandwidth_only_prefers_fat_pipe(warm_testbed):
    selector = BandwidthOnlySelector(
        warm_testbed.grid, warm_testbed.information
    )
    choice = run_process(
        warm_testbed.grid, selector.select("alpha1", CANDIDATES)
    )
    assert choice == "alpha4"


def test_cost_model_selector_matches_server(warm_testbed):
    selector = CostModelSelector(
        warm_testbed.grid, warm_testbed.information
    )
    choice = run_process(
        warm_testbed.grid, selector.select("alpha1", CANDIDATES)
    )
    decision = run_process(
        warm_testbed.grid,
        warm_testbed.selection_server.select("alpha1", "file-a"),
    )
    assert choice == decision.chosen


def test_oracle_rates_order_sensibly(warm_testbed):
    oracle = OracleSelector(warm_testbed.grid)
    rates = {
        c: oracle.achievable_rate(c, "alpha1") for c in CANDIDATES
    }
    assert rates["alpha4"] > rates["hit0"] > rates["lz02"]
    choice = run_process(
        warm_testbed.grid, oracle.select("alpha1", CANDIDATES)
    )
    assert choice == "alpha4"


def test_selectors_reject_empty_candidates(warm_testbed):
    for selector in [
        RandomSelector(warm_testbed.grid),
        RoundRobinSelector(),
        ProximitySelector(warm_testbed.grid),
        OracleSelector(warm_testbed.grid),
    ]:
        with pytest.raises(ValueError):
            run_process(warm_testbed.grid, selector.select("alpha1", []))

