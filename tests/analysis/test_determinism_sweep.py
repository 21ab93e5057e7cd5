"""Same-seed digest sweep over the headline exhibits (quick mode).

The full eighteen-experiment sweep runs in CI's sanitize job via
``python -m repro.analysis.sanitizers``; here a handful of exhibits are
checked and pinned so a regression fails fast in tier 1.
"""

import pytest

from repro.analysis.sanitizers import (
    check_determinism,
    run_traced,
    trace_digest,
)
from repro.experiments.runner import EXPERIMENTS


@pytest.mark.parametrize("experiment_id", ["fig3", "table1"])
def test_quick_experiment_is_deterministic(experiment_id):
    runner = EXPERIMENTS[experiment_id]
    report = check_determinism(
        lambda: runner(True, 0), name=experiment_id
    )
    assert report.ok, report.describe()
    assert report.record_counts[0] > 0


#: Same-seed (seed 0, quick) trace digests and record counts, pinned
#: across commits.  A change that moves a single simulated byte in these
#: exhibits fails here; re-pin only for a deliberate behaviour change.
#: ``fig_scale`` exercises regional monitoring's shared sensor tick
#: groups; ``fig_chaos`` is the longest of the three streams;
#: ``abl_forecast`` carries the NWS forecast-error histograms;
#: ``abl_scale`` and ``abl_staleness`` build flat grids of synthetic
#: sites through :func:`~repro.testbed.topology.presets.flat`.
PINNED_DIGESTS = {
    "abl_forecast": (
        "84132ad6efc994975f017f4cf92707706f4f7e4dade4005c2bd2d4f85310a96e",
        11,
    ),
    "table1": (
        "9c42ad936629e5ebba222c88f773bc68486cc93d1cda5909fcbfde01560ede6d",
        47,
    ),
    "fig_scale": (
        "f18a18062b6c4511e29c62708ef315c6e7dc2ed318be6c16fa8858770b1041d3",
        90,
    ),
    "fig_chaos": (
        "3a724c3d829f5b36254719bf8cb76efe2721645b85687b95aaa1e2049cb6e741",
        807,
    ),
    "abl_scale": (
        "d7a1e1113744f3a9216b2190e736e667d8c5e3eb39bd42a8414ea5a46dae68f6",
        172,
    ),
    "abl_staleness": (
        "804e21d85430e9ad0619514a6a731ac55468530839076a8bbd79800f121852af",
        114,
    ),
}


@pytest.mark.parametrize("experiment_id", sorted(PINNED_DIGESTS))
def test_quick_trace_digest_is_pinned(experiment_id):
    runner = EXPERIMENTS[experiment_id]
    _, records = run_traced(lambda: runner(True, 0))
    digest, count = PINNED_DIGESTS[experiment_id]
    assert len(records) == count
    assert trace_digest(records) == digest


#: ``abl_forecast``'s result rows (seed 0, quick), digested the same
#: way.  Its trace holds only metrics, and under capture observability
#: is on, which makes the NWS memory fold every reading as it arrives;
#: the rows, taken with observability off, are where a battery that
#: missed readings would show (every MAE ``inf``, ``last-value`` best).
PINNED_ABL_FORECAST_ROWS = (
    "0ce78870b8f69617244fffafb0cde57be3c5bf2d9970de10d6cb3cb4d43e681f"
)


def test_abl_forecast_rows_are_pinned():
    result = EXPERIMENTS["abl_forecast"](True, 0)
    assert trace_digest(result.rows) == PINNED_ABL_FORECAST_ROWS


#: ``fig_scale``'s seeded row columns (seed 0, quick), digested the same
#: way.  Its pinned trace does not carry the grid's size, the selection
#: results or the kernel's event count and clock; these columns do.
#: The wall-time and RSS columns vary with the machine and are left out.
FIG_SCALE_SEEDED_COLUMNS = (
    "n_sites", "regions", "hosts", "sensors", "warmup_s",
    "oracle_agreement", "mean_fetch_seconds", "events", "sim_s",
)
PINNED_FIG_SCALE_ROWS = (
    "d2ef5ee1de3ea56fc47535946865ea65382d81cf38f6e4b3b79c9ac2a8ecc722"
)


def test_fig_scale_seeded_columns_are_pinned():
    result = EXPERIMENTS["fig_scale"](True, 0)
    rows = [
        {column: row[column] for column in FIG_SCALE_SEEDED_COLUMNS}
        for row in result.rows
    ]
    assert trace_digest(rows) == PINNED_FIG_SCALE_ROWS
