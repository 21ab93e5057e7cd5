"""Tests for the statistics toolkit and experiment replication."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.stats import (
    Summary,
    confidence_interval_95,
    mean,
    sample_std,
    t_critical_95,
)


class TestBasics:
    def test_mean(self):
        assert mean([1.0, 2.0, 3.0]) == 2.0
        with pytest.raises(ValueError):
            mean([])

    def test_sample_std(self):
        assert sample_std([5.0]) == 0.0
        assert sample_std([2.0, 4.0]) == pytest.approx(math.sqrt(2.0))
        with pytest.raises(ValueError):
            sample_std([])

    def test_t_values(self):
        assert t_critical_95(1) == pytest.approx(12.706)
        assert t_critical_95(30) == pytest.approx(2.042)
        assert t_critical_95(1000) == pytest.approx(1.96)
        with pytest.raises(ValueError):
            t_critical_95(0)

    def test_ci_single_value_degenerate(self):
        assert confidence_interval_95([7.0]) == (7.0, 7.0)

    def test_ci_two_values(self):
        low, high = confidence_interval_95([0.0, 2.0])
        # mean 1, std sqrt2, t=12.706, half = 12.706*sqrt(2)/sqrt(2)
        assert low == pytest.approx(1 - 12.706)
        assert high == pytest.approx(1 + 12.706)

    def test_summary_fields(self):
        s = Summary([1.0, 2.0, 3.0])
        assert s.n == 3
        assert s.mean == 2.0
        assert s.minimum == 1.0 and s.maximum == 3.0
        assert s.ci_low < s.mean < s.ci_high
        assert s.ci_half_width == pytest.approx(
            (s.ci_high - s.ci_low) / 2
        )

    @given(st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=50))
    @settings(max_examples=100, deadline=None)
    def test_ci_contains_mean_and_is_symmetric(self, values):
        low, high = confidence_interval_95(values)
        mu = mean(values)
        assert low <= mu <= high
        assert (mu - low) == pytest.approx(high - mu, abs=1e-6)


#: Experiment -> an outcome column its ``--seeds`` output must carry.
SEEDED_OUTCOMES = {
    "abl_striped": "seconds_mean",
    "fig_chaos": "chaos_injections_mean",  # int outcome
    "abl_forecast": "best_forecaster",  # str outcome
    "abl_coalloc": "fast_share_mean",  # absent from some rows
    "fig_scale": "events_mean",  # int outcome
}


class TestReplication:
    def test_replicate_aggregates_float_columns(self):
        from repro.experiments.base import ExperimentResult
        from repro.experiments.replication import replicate

        def fake_experiment(seed):
            return ExperimentResult(
                "fake", "Fake", ["name", "value"],
                [{"name": "x", "value": 10.0 + seed}],
            )

        result = replicate(fake_experiment, [0, 1, 2])
        assert result.experiment_id == "fake@3seeds"
        row = result.rows[0]
        assert row["name"] == "x"
        assert row["value_mean"] == pytest.approx(11.0)
        assert row["value_ci95"] > 0

    def test_replicate_rejects_mismatched_keys(self):
        from repro.experiments.base import ExperimentResult
        from repro.experiments.replication import replicate

        def unstable(seed):
            return ExperimentResult(
                "u", "U", ["name", "value"],
                [{"name": f"x{seed}", "value": 1.0}],
            )

        with pytest.raises(ValueError):
            replicate(unstable, [0, 1])

    def test_replicate_needs_seeds(self):
        from repro.experiments.replication import replicate

        with pytest.raises(ValueError):
            replicate(lambda seed: None, [])

    def test_runner_replication_of_real_experiment(self):
        from repro.experiments.runner import run_experiment

        result = run_experiment("fig3", quick=True, seeds=2)
        assert result.experiment_id == "fig3@2seeds"
        assert "ftp_seconds_mean" in result.headers
        assert "ftp_seconds_ci95" in result.headers
        for row in result.rows:
            assert row["ftp_seconds_mean"] > 0
            # The static fig3 testbed is seed-independent.
            assert row["ftp_seconds_ci95"] == pytest.approx(0.0, abs=1e-6)

    @pytest.mark.parametrize("experiment_id", sorted(SEEDED_OUTCOMES))
    def test_runner_replication_of_dynamic_experiment(self, experiment_id):
        """Integer and string outcomes that vary by seed, and columns
        only some rows carry, aggregate instead of failing."""
        from repro.experiments.runner import run_experiment

        result = run_experiment(experiment_id, quick=True, seeds=2)
        outcome = SEEDED_OUTCOMES[experiment_id]
        assert result.experiment_id == f"{experiment_id}@2seeds"
        assert outcome in result.headers
        assert any(outcome in row for row in result.rows)

    def test_replication_pairs_rows_by_configuration(self):
        """abl_selectors sorts its rows by fetch time, so row order
        differs by seed; each aggregate must average one selector."""
        from repro.experiments.replication import replicate
        from repro.experiments.runner import EXPERIMENTS

        runs = []

        def one_run(seed):
            runs.append(EXPERIMENTS["abl_selectors"](True, seed))
            return runs[-1]

        result = replicate(one_run, [0, 1])
        per_seed = [
            {row["selector"]: row["mean_fetch_seconds"] for row in r.rows}
            for r in runs
        ]
        assert [r["selector"] for r in result.rows] == [
            r["selector"] for r in runs[0].rows
        ]
        for row in result.rows:
            values = [seed_rows[row["selector"]] for seed_rows in per_seed]
            assert row["mean_fetch_seconds_mean"] == pytest.approx(
                sum(values) / len(values)
            )
