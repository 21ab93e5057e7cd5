"""Shared fixtures: small grids used across protocol and service tests."""

import pytest

from repro.grid import DataGrid
from repro.units import mbit_per_s


def pytest_addoption(parser):
    parser.addoption(
        "--sanitize", action="store_true", default=False,
        help="arm the sim-time watchdog on every simulator the tests "
             "build and the flow-model invariant checks on every flow "
             "network, and fail tests that break either",
    )


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "no_sanitize: opt a test out of the --sanitize checks "
        "(for tests that break sim-time or flow invariants on purpose)",
    )


@pytest.fixture(autouse=True)
def _sim_time_sanitizer(request):
    """Under ``--sanitize``, watch every simulator a test constructs
    and check every flow network after each reallocation."""
    if not request.config.getoption("--sanitize"):
        yield
        return
    if request.node.get_closest_marker("no_sanitize") is not None:
        yield
        return
    from repro.analysis.sanitizers import install_global_watchdog
    from tests.network.flow_invariants import install_flow_invariants

    guard = install_global_watchdog()
    flows = install_flow_invariants()
    try:
        yield
    finally:
        flows.uninstall()
        guard.uninstall()
    violations = guard.violations()
    assert not violations, (
        "sim-time watchdog violations:\n"
        + "\n".join(str(v) for v in violations)
    )
    violations = flows.violations()
    assert not violations, (
        "flow-model invariant violations:\n"
        + "\n".join(str(v) for v in violations)
    )


def build_two_host_grid(seed=0, capacity=mbit_per_s(100), latency=0.005,
                        loss_rate=0.0, disk_bandwidth=500e6):
    """Two hosts joined by one duplex link.

    The default disk bandwidth (500 MB/s) is deliberately far above the
    link rate so network behaviour dominates unless a test lowers it.
    """
    grid = DataGrid(seed=seed)
    grid.add_host("src", "SITE-A", cores=2, disk_bandwidth=disk_bandwidth,
                  disk_capacity=500e9)
    grid.add_host("dst", "SITE-B", cores=2, disk_bandwidth=disk_bandwidth,
                  disk_capacity=500e9)
    grid.connect("src", "dst", capacity, latency=latency,
                 loss_rate=loss_rate)
    return grid


@pytest.fixture
def two_host_grid():
    return build_two_host_grid()


def run_process(grid, generator):
    """Run a generator as a process to completion, returning its value."""
    return grid.sim.run(until=grid.sim.process(generator))
