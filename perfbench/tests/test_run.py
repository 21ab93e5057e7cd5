"""The benchmark command: metric names, correctness checks, phases."""

import json
import re

import pytest

import run
import worker
from layers import SPANS, targets
from workloads import WORKLOADS, setup_paper3

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
BENCHMARK = run.ROOT / "BENCHMARK.json"


def test_metric_names_and_units_are_well_formed():
    units = {**run.END_TO_END_UNITS, **run.layer_units()}
    assert len(units) == len(run.END_TO_END_UNITS) + len(run.layer_units())
    for name, unit in units.items():
        assert NAME.fullmatch(name), name
        assert UNIT.fullmatch(unit), unit


def test_benchmark_json_matches_the_command():
    spec = json.loads(BENCHMARK.read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert list(run.WORKLOAD_NAMES) == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        run.layer_units()


def test_every_span_resolves_to_a_wrappable_attribute():
    resolved = targets()
    assert [span for span, _, _ in resolved] == list(SPANS)
    for span, owner, attribute in resolved:
        assert attribute in vars(owner), span


def _rep(outputs, events_in_setup=0, wall_s=1.0):
    return {
        "setup_cpu_s": 0.1, "cpu_s": wall_s, "wall_s": wall_s,
        "sim_s": 100.0,
        "segments_cpu_s": [wall_s / 2 - 0.1, wall_s / 2],
        "events_in_setup": events_in_setup, "events": 10,
        "queue_high_water": 3, "peak_rss_bytes": 50e6, "outputs": outputs,
    }


SELECTION_OUTPUTS = {
    "offered": 3, "served": 3, "selections": 3, "oracle_matches": 2,
    "chosen": [0, 1, 0], "fetch_digest": "abc",
}


def test_check_accepts_agreeing_repetitions():
    reps = [_rep(dict(SELECTION_OUTPUTS)), _rep(dict(SELECTION_OUTPUTS))]
    reference = {"paper3_selection": {"7": dict(SELECTION_OUTPUTS)}}
    assert run.check("paper3_selection", 7, reps, reference) == []


def test_mismatching_reference_is_a_problem():
    pinned = dict(SELECTION_OUTPUTS, chosen=[0, 2, 0])
    reference = {"paper3_selection": {"7": pinned}}
    problems = run.check(
        "paper3_selection", 7, [_rep(dict(SELECTION_OUTPUTS))], reference
    )
    assert problems == ["reference: chosen differs from index 1"]


def test_disagreeing_repetitions_and_setup_events_are_problems():
    other = dict(SELECTION_OUTPUTS, fetch_digest="abd")
    reps = [_rep(dict(SELECTION_OUTPUTS)), _rep(other, events_in_setup=4)]
    problems = run.check("paper3_selection", 1, reps, {})
    assert any("set-up processed 4 events" in p for p in problems)
    assert any("outputs differ" in p for p in problems)


def test_reference_file_round_trips_one_line_per_seed():
    reference = {
        "paper3_selection": {"10": SELECTION_OUTPUTS, "2": SELECTION_OUTPUTS},
        "grid_scale_1000": {"0": SELECTION_OUTPUTS},
    }
    text = run.format_reference(reference)
    assert json.loads(text) == reference
    assert len(text.splitlines()) == 2 + 2 * 2 + 3
    assert text.index('"2"') < text.index('"10"')


def test_door_invariants():
    outputs = {
        "offered": 10, "served": 6, "completed": 5, "failed": 1,
        "shed": 3, "dedup": 1, "outstanding": 0, "selections": 7,
    }
    assert run.invariant_problems("frontdoor_brownout", outputs) == []
    lost = dict(outputs, shed=0)
    assert run.invariant_problems("frontdoor_brownout", lost)


def _canned_pass(outputs):
    return {
        "reps": [_rep(outputs)], "setup_cpu_s": [0.1, 0.2, 0.3],
        "environment": {"python": "3", "platform": "test", "cpu_count": 1},
    }


def test_parallel_workers_are_pooled(monkeypatch):
    outputs = dict(SELECTION_OUTPUTS)
    results = iter([
        (dict(_canned_pass(outputs), reps=[_rep(outputs, wall_s=3.0)]), 4),
        (dict(_canned_pass(outputs),
              reps=[_rep(outputs), _rep(outputs)]), 2),
    ])
    monkeypatch.setattr(run, "_run_worker", lambda *args: next(results))
    pooled, warning_lines = run.run_pass(
        "paper3_selection", 0, 1.0, False, 60.0, processes=2
    )
    assert len(pooled["reps"]) == 3
    assert pooled["reps"][0]["wall_s"] == 3.0
    assert len(pooled["setup_cpu_s"]) == 6
    assert warning_lines == 2


def test_mismatching_reference_fails_the_run(monkeypatch, tmp_path, capsys):
    reference = tmp_path / "reference.json"
    pinned = dict(SELECTION_OUTPUTS, oracle_matches=3)
    reference.write_text(json.dumps({"paper3_selection": {"0": pinned}}))
    monkeypatch.setattr(run, "REFERENCE", reference)
    monkeypatch.setattr(
        run, "run_pass",
        lambda *args, **kwargs: (_canned_pass(dict(SELECTION_OUTPUTS)), 0),
    )
    argv = ["--workload", "paper3_selection", "--seed", "0",
            "--seconds", "1", "--trace", "0"]
    assert run.main(argv) == 1
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] == 1

    reference.write_text(
        json.dumps({"paper3_selection": {"0": SELECTION_OUTPUTS}})
    )
    assert run.main(argv) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] is True
    assert set(result["metrics"]) == set(run.END_TO_END_UNITS)
    assert result["metrics"]["setup_s"]["value"] == pytest.approx(0.1)


def test_simulation_time_is_the_fastest_of_each_segment():
    reps = [
        {"segments_cpu_s": [1.0, 5.0, 2.0]},
        {"segments_cpu_s": [3.0, 4.0, 2.5]},
        {"segments_cpu_s": [2.0, 6.0, 1.5]},
    ]
    assert run.fastest_simulation(reps) == pytest.approx(1.0 + 4.0 + 1.5)
    outputs = dict(SELECTION_OUTPUTS)
    untraced = _canned_pass(outputs)
    untraced["reps"] = [_rep(outputs, wall_s=4.0), _rep(outputs, wall_s=2.0)]
    metrics = run.end_to_end(untraced)
    assert metrics["setup_s"] == pytest.approx(0.1)
    assert metrics["cpu_s"] == pytest.approx(0.1 + 0.9 + 1.0)
    assert metrics["sim_s_per_cpu_s"] == pytest.approx(100.0 / 1.9)


def test_per_layer_self_times_and_remainder_add_up():
    rep = _rep(dict(SELECTION_OUTPUTS), wall_s=10.0)
    rep["spans"] = {"sim.step": (5, 9.0, 4.0), "core.cost_model.rank":
                    (2, 5.0, 5.0)}
    rep["solver"] = {"solves": 1, "cache_hits": 3}
    untraced = {"reps": [_rep(dict(SELECTION_OUTPUTS), wall_s=8.0)]}
    metrics = run.per_layer(untraced, {"reps": [rep]}, warning_lines=2)
    assert set(metrics) == set(run.layer_units())
    self_sum = sum(metrics[f"{span}.self_s"] for span in SPANS)
    assert self_sum + metrics["trace.unattributed_s"] == \
        pytest.approx(metrics["trace.wall_s"])
    assert metrics["trace.overhead_s"] == pytest.approx(2.0)
    assert metrics["network.solver.cache_hit_ratio"] == 0.75
    assert metrics["logging.warning_lines"] == 2


def test_setup_processes_no_event_and_simulation_advances():
    prepared = setup_paper3(seed=3, rounds=2)
    assert prepared.sim.events_processed == 0
    assert prepared.sim.now == 0.0
    outputs = prepared.simulate()
    assert prepared.sim.events_processed > 0
    assert outputs["offered"] == outputs["served"] == 2


def test_repetition_phases_and_tracing_neutrality(monkeypatch):
    small = WORKLOADS["paper3_selection"]
    monkeypatch.setattr(
        small, "setup", lambda seed: setup_paper3(seed, rounds=3)
    )
    plain = worker.run_repetition(small, 5)
    traced = worker.traced_repetition(small, 5)
    assert plain["events_in_setup"] == traced["events_in_setup"] == 0
    assert plain["sim_s"] > 0
    assert 0 < plain["setup_cpu_s"] < plain["cpu_s"]
    assert plain["outputs"] == traced["outputs"]
    spans = traced["spans"]
    # Generator entry points count calls, not resumptions.
    assert spans["gridftp.client.get"][0] == 3
    # Solo sensor ticks reach measure_once through a bound timer callback.
    assert spans["monitoring.nws.sensor.measure_once"][0] > 0
    assert spans["testbed.build_testbed"][0] == 1
    self_total = sum(entry[2] for entry in spans.values())
    assert self_total <= traced["wall_s"]
