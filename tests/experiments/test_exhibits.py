"""Shape tests for the paper-exhibit experiments (quick parameters).

These assert the *qualitative* claims of the paper hold in the
reproduction.  The benchmark harness under ``benchmarks/`` regenerates
the other full-size exhibits; the striped and co-allocation ablations
are cheap at full size, so their claims are checked at that size here.
"""

import pytest

from repro.experiments import (
    run_ablation_coalloc,
    run_ablation_scale,
    run_ablation_selectors,
    run_ablation_striped,
    run_ablation_weights,
    run_fig3,
    run_fig4,
    run_fig5,
    run_fig_chaos,
    run_table1,
)


@pytest.fixture(scope="module")
def fig3():
    return run_fig3(sizes_mb=(16, 64), seed=0)


@pytest.fixture(scope="module")
def fig4():
    return run_fig4(sizes_mb=(16, 64), streams=(None, 1, 2, 4), seed=0)


@pytest.fixture(scope="module")
def table1():
    return run_table1(file_size_mb=64, seed=0, warmup=90.0)


class TestFig3:
    def test_row_per_size(self, fig3):
        assert fig3.column("file_size_mb") == [16, 64]

    def test_times_scale_with_size(self, fig3):
        ftp = fig3.column("ftp_seconds")
        assert ftp[1] > ftp[0] * 2

    def test_gridftp_slower_but_similar(self, fig3):
        """GridFTP pays GSI overhead; by larger sizes it is within a
        few percent of FTP."""
        for row in fig3.rows:
            assert row["gridftp_seconds"] > row["ftp_seconds"]
        overheads = fig3.column("gridftp_overhead_pct")
        assert overheads[1] < overheads[0]  # washes out as size grows
        assert overheads[1] < 10.0


class TestFig4:
    def test_parallel_streams_cut_time(self, fig4):
        for row in fig4.rows:
            assert row["p2_seconds"] < row["p1_seconds"]
            assert row["p4_seconds"] < row["p2_seconds"]

    def test_one_stream_mode_e_close_to_stream_mode(self, fig4):
        """The paper's remark: p=1 is not the same as no parallelism,
        but the times are close."""
        for row in fig4.rows:
            ratio = row["p1_seconds"] / row["no_parallel_seconds"]
            assert 0.9 < ratio < 1.1

    def test_relative_gain_grows_with_size(self, fig4):
        gains = [
            row["no_parallel_seconds"] / row["p4_seconds"]
            for row in fig4.rows
        ]
        assert gains[1] > gains[0]


class TestTable1:
    def test_score_ranking_matches_time_ranking(self, table1):
        by_score = sorted(
            table1.rows, key=lambda r: -r["score"]
        )
        by_time = sorted(
            table1.rows, key=lambda r: r["transfer_seconds"]
        )
        assert (
            [r["replica_host"] for r in by_score]
            == [r["replica_host"] for r in by_time]
        )

    def test_same_site_replica_wins(self, table1):
        chosen = [r for r in table1.rows if r["chosen"]]
        assert len(chosen) == 1
        assert chosen[0]["replica_host"] == "alpha4"

    def test_factors_are_fractions(self, table1):
        for row in table1.rows:
            for key in ["BW_P", "CPU_P", "IO_P", "score"]:
                assert 0.0 <= row[key] <= 1.0

    def test_load_profile_visible_in_factors(self, table1):
        rows = {r["replica_host"]: r for r in table1.rows}
        # alpha4 carries the heaviest static load in the scenario.
        assert rows["alpha4"]["CPU_P"] < rows["lz02"]["CPU_P"]
        assert rows["alpha4"]["IO_P"] < rows["lz02"]["IO_P"]


class TestFig5:
    def test_monitor_produces_sorted_costs(self):
        result = run_fig5(duration=120.0, period=15.0, window=60.0, seed=0)
        assert result.rows[0]["rank"] == 1
        costs = [row[f"mean_cost_60s"] for row in result.rows]
        assert costs == sorted(costs, reverse=True)
        assert all(row["samples"] >= 5 for row in result.rows)

    def test_local_site_ranks_first(self):
        result = run_fig5(duration=120.0, seed=0, window=60.0)
        assert result.rows[0]["site"] == "alpha4"


class TestAblations:
    def test_selectors_cost_model_beats_naive(self):
        result = run_ablation_selectors(
            selector_names=("random", "cost-model", "oracle"),
            rounds=3, file_size_mb=32, seed=0, warmup=60.0,
        )
        by_name = {r["selector"]: r for r in result.rows}
        assert (
            by_name["cost-model"]["mean_fetch_seconds"]
            <= by_name["random"]["mean_fetch_seconds"]
        )
        assert (
            by_name["oracle"]["mean_fetch_seconds"]
            <= by_name["cost-model"]["mean_fetch_seconds"] * 1.05
        )

    def test_weights_bandwidth_heavy_beats_load_only(self):
        result = run_ablation_weights(
            weight_grid=((0.8, 0.1, 0.1), (0.0, 0.5, 0.5)),
            rounds=3, file_size_mb=32, seed=0, warmup=60.0,
        )
        paper = next(r for r in result.rows if r["is_paper_choice"])
        load_only = next(r for r in result.rows if r["BW_W"] == 0.0)
        assert (
            paper["mean_fetch_seconds"] < load_only["mean_fetch_seconds"]
        )

    def test_scale_cost_model_beats_random_everywhere(self):
        result = run_ablation_scale(
            site_counts=(3, 6), rounds=3, file_size_mb=32, seed=0,
            warmup=60.0,
        )
        for n in (3, 6):
            pair = {
                r["selector"]: r for r in result.rows if r["sites"] == n
            }
            assert (
                pair["cost-model"]["mean_fetch_seconds"]
                <= pair["random"]["mean_fetch_seconds"]
            )

    def test_striping_aggregates_disks(self):
        result = run_ablation_striped(file_size_mb=32, seed=0)
        by_strategy = {r["strategy"]: r["seconds"] for r in result.rows}
        single = by_strategy["single-source, 1 stream"]
        parallel = by_strategy["single-source, 4 streams"]
        striped2 = by_strategy["striped, 2 sources"]
        striped3 = by_strategy["striped, 3 sources"]
        # Parallel streams do not beat the disk bottleneck...
        assert parallel > single * 0.9
        # ...but striping does, roughly linearly.
        assert striped2 < single * 0.7
        assert striped3 < striped2

    def test_striping_aggregates_disks_at_full_size(self):
        result = run_ablation_striped(file_size_mb=256, seed=0)
        by_strategy = {r["strategy"]: r["seconds"] for r in result.rows}
        single = by_strategy["single-source, 1 stream"]
        striped2 = by_strategy["striped, 2 sources"]
        striped3 = by_strategy["striped, 3 sources"]
        assert striped2 < single * 0.65
        assert striped3 < striped2

    def test_conservative_coallocation_at_full_size(self):
        # At the quick 64 MB / 8 MB size one straggler block on the slow
        # replica is a large share of the transfer, so these bounds are
        # for the full 256 MB / 16 MB exhibit only.
        result = run_ablation_coalloc(file_size_mb=256, seed=0)
        seconds = {r["strategy"]: r["seconds"] for r in result.rows}
        best = seconds["best single server"]
        worst = seconds["worst single server"]
        brute = seconds["brute-force coallocation"]
        conservative = seconds["conservative coallocation"]
        # Even splitting is dragged down by the slow replica...
        assert brute > best * 2
        # ...while conservative scheduling stays close to the best server
        # and beats both the bad pick and the naive split.
        assert conservative < brute * 0.6
        assert conservative < worst * 0.4
        assert conservative < best * 2
        shares = next(
            r for r in result.rows
            if r["strategy"] == "conservative coallocation"
        )
        assert shares["fast_share"] > shares["slow_share"]


class TestFigChaos:
    @pytest.fixture(scope="class")
    def fig_chaos(self):
        return run_fig_chaos(
            rounds=2, gap=20.0, file_size_mb=16, warmup=60.0,
            horizon=200.0, seed=0,
        )

    def test_one_row_per_campaign_policy_pair(self, fig_chaos):
        pairs = {(r["campaign"], r["policy"]) for r in fig_chaos.rows}
        assert len(pairs) == len(fig_chaos.rows) == 9

    def test_monitor_blackout_completes_everything(self, fig_chaos):
        """The acceptance gate: degradation policies carry every fetch
        through a total monitoring outage."""
        for row in fig_chaos.rows:
            if row["campaign"] == "monitor_blackout":
                assert row["failed"] == 0
                assert row["completed"] == 2

    def test_blackout_forces_degraded_factors(self, fig_chaos):
        blackout_cost_model = next(
            r for r in fig_chaos.rows
            if r["campaign"] == "monitor_blackout"
            and r["policy"] == "cost-model"
        )
        assert blackout_cost_model["degraded_factors"] > 0

    def test_every_cell_saw_chaos(self, fig_chaos):
        for row in fig_chaos.rows:
            assert row["chaos_injections"] >= 1


class TestRunner:
    def test_run_experiment_by_id(self):
        from repro.experiments.runner import run_experiment

        result = run_experiment("fig3", quick=True)
        assert result.experiment_id == "fig3"

    def test_unknown_id_rejected(self):
        from repro.experiments.runner import run_experiment

        with pytest.raises(KeyError):
            run_experiment("fig99")

    def test_cli_list(self, capsys):
        from repro.experiments.runner import main

        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "fig3" in out and "abl_striped" in out

    def test_cli_runs_quick_experiment(self, capsys):
        from repro.experiments.runner import main

        assert main(["--quick", "fig3"]) == 0
        out = capsys.readouterr().out
        assert "FTP vs GridFTP" in out
