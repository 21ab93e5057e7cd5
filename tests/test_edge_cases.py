"""Cross-module edge cases not covered by the per-module suites."""

import pytest

from repro.grid import DataGrid
from repro.units import megabytes

from tests.conftest import build_two_host_grid, run_process


class TestSelectionServerEdges:
    def test_fetch_passes_gsi_config(self):
        from repro.gridftp import GSIConfig
        from repro.testbed import build_testbed

        testbed = build_testbed(seed=71, monitoring=False)
        grid = testbed.grid
        testbed.catalog.create_logical_file("f", megabytes(4))
        grid.host("hit0").filesystem.create("f", megabytes(4))
        testbed.catalog.register_replica("f", "hit0")
        decision, record = run_process(
            grid,
            testbed.selection_server.fetch(
                "alpha1", "f", gsi=GSIConfig(enabled=False)
            ),
        )
        assert record.auth_seconds == 0.0

    def test_selection_of_unknown_logical_file(self):
        from repro.replica import LogicalFileNotFoundError
        from repro.testbed import build_testbed

        testbed = build_testbed(seed=72, monitoring=False)
        with pytest.raises(LogicalFileNotFoundError):
            run_process(
                testbed.grid,
                testbed.selection_server.select("alpha1", "ghost"),
            )

    def test_client_colocated_with_selection_server_pays_no_rtt(self):
        from repro.testbed import build_testbed

        testbed = build_testbed(seed=73, monitoring=False)
        grid = testbed.grid
        testbed.catalog.create_logical_file("f", 10.0)
        grid.host("alpha2").filesystem.create("f", 10.0)
        testbed.catalog.register_replica("f", "alpha2")
        t0 = grid.sim.now
        run_process(
            grid,
            testbed.selection_server.score_candidates(
                "alpha1", ["alpha2"]
            ),
        )
        elapsed_local = grid.sim.now - t0
        t1 = grid.sim.now
        run_process(
            grid,
            testbed.selection_server.score_candidates(
                "hit0", ["alpha2"]
            ),
        )
        elapsed_remote = grid.sim.now - t1
        assert elapsed_remote > elapsed_local


class TestMonitoringEdges:
    def test_giis_invalidate_all(self):
        from repro.monitoring.mds import GIIS, GRIS

        grid = build_two_host_grid()
        giis = GIIS(grid, "dst", ttl=1000.0)
        giis.register(GRIS(grid, "src"))
        run_process(grid, giis.query("src"))
        giis.invalidate()
        run_process(grid, giis.query("src"))
        assert giis.cache_misses == 2

    def test_giis_zero_ttl_always_fetches(self):
        from repro.monitoring.mds import GIIS, GRIS

        grid = build_two_host_grid()
        giis = GIIS(grid, "dst", ttl=0.0)
        giis.register(GRIS(grid, "src"))
        run_process(grid, giis.query("src"))
        grid.run(until=grid.sim.now + 1.0)
        run_process(grid, giis.query("src"))
        assert giis.cache_misses == 2
        with pytest.raises(ValueError):
            GIIS(grid, "dst", ttl=-1.0)

    def test_information_service_loopback_bw_is_one(self):
        from repro.monitoring import InformationService
        from repro.monitoring.mds import GIIS, GRIS
        from repro.monitoring.nws import NwsMemory

        grid = build_two_host_grid()
        giis = GIIS(grid, "dst")
        giis.register(GRIS(grid, "dst"))
        info = InformationService(
            grid, "dst", NwsMemory(grid.sim), giis
        )
        fraction, label = info.bandwidth_fraction("dst", "dst")
        assert fraction == 1.0
        assert label == "loopback"


class TestRunnerEdges:
    def test_unknown_experiment_cli_error(self, capsys):
        from repro.experiments.runner import main

        with pytest.raises(SystemExit):
            main(["not-an-experiment"])

    def test_single_seed_passthrough(self):
        from repro.experiments.runner import run_experiment

        result = run_experiment("fig2", seeds=1)
        assert result.experiment_id == "fig2"


class TestDataGridEdges:
    def test_path_between_unknown_hosts(self):
        grid = DataGrid()
        grid.add_host("a", "S")
        with pytest.raises(KeyError):
            grid.path("a", "ghost")

    def test_tcp_params_propagate_to_host(self):
        from repro.network.tcp import TCPParameters

        grid = DataGrid()
        host = grid.add_host(
            "a", "S", tcp=TCPParameters(max_window=128 * 1024)
        )
        assert host.tcp.max_window == 128 * 1024

    def test_service_lookup_missing(self):
        grid = DataGrid()
        grid.add_host("a", "S")
        with pytest.raises(KeyError):
            grid.service("a", "nope")
