"""Table 1 computes whether the paper's claim held instead of asserting it."""

import pytest

from repro.experiments.runner import run_experiment
from repro.experiments.table1 import claim_verdict


def test_claim_holds_on_the_paper_testbed():
    result = run_experiment("table1", quick=True)
    assert any(note.startswith("Paper's claim held") for note in result.notes)
    assert not any("claim failed" in note for note in result.notes)


def test_claim_fails_on_fat_tree_campus_and_says_by_how_much():
    result = run_experiment("table1", quick=True, preset="fat_tree_campus")
    chosen = [row for row in result.rows if row["chosen"]]
    assert [row["replica_host"] for row in chosen] == ["m02s01h2"]
    assert "Paper's claim failed: the two rankings disagree." in result.notes
    assert result.notes[-1] == (
        "chosen replica m02s01h2 took 127.5 s, 1.38x the fastest, "
        "c00s00h1 (92.1 s)"
    )


@pytest.mark.parametrize("score_order,time_order,held", [
    (["a", "b", "c"], ["a", "b", "c"], True),
    (["a", "b", "c"], ["a", "c", "b"], False),
])
def test_verdict_compares_whole_rankings(score_order, time_order, held):
    seconds = {name: float(i + 1) for i, name in enumerate(time_order)}
    notes = claim_verdict(score_order, time_order, seconds, chosen="a")
    assert notes == [
        "Paper's claim held: the two rankings agree — the best-scored "
        "replica is the fastest to fetch."
        if held else "Paper's claim failed: the two rankings disagree."
    ]
