"""End-to-end instrumentation: a selection trace's JSONL export carries
the paper's Table 1 and per-transfer phase breakdowns.

These tests drive the real experiment harness on an observed testbed,
export the trace, and reconstruct the exhibits from the file alone —
the acceptance criteria of the instrumentation layer.
"""

import json

import pytest

from repro.core.baselines import CostModelSelector
from repro.experiments.harness import register_replicas, run_selection_trace
from repro.gridftp import (
    GridFtpClient,
    brute_force_coallocation_get,
    conservative_coallocation_get,
    striped_get,
)
from repro.testbed import build_testbed
from repro.units import megabytes

CLIENT = "alpha1"
REPLICA_HOSTS = ("alpha4", "hit0", "lz02")
ROUNDS = 3

PHASE_NAMES = {"connect", "auth", "control", "startup", "data", "teardown"}


@pytest.fixture(scope="module")
def trace_run(tmp_path_factory):
    """One observed selection trace, exported to JSONL and read back."""
    testbed = build_testbed(seed=3, dynamic=True, observe=True)
    register_replicas(testbed, "file-a", REPLICA_HOSTS, 32)
    testbed.warm_up(120.0)
    selector = CostModelSelector(testbed.grid, testbed.information)
    result = run_selection_trace(
        testbed, selector, CLIENT, "file-a", rounds=ROUNDS, gap=60.0
    )
    path = tmp_path_factory.mktemp("obs") / "trace.jsonl"
    result.obs.export_jsonl(path)
    with open(path) as handle:
        records = [json.loads(line) for line in handle]
    return result, records


def events_of(records, kind):
    return [r for r in records
            if r["type"] == "event" and r["kind"] == kind]


def spans_of(records, name):
    return [r for r in records
            if r["type"] == "span" and r["name"] == name]


class TestTraceResultCarriesObservability:
    def test_obs_attached_and_live(self, trace_run):
        result, _ = trace_run
        assert result.obs is not None
        assert result.obs.enabled

    def test_obs_disabled_by_default(self):
        testbed = build_testbed(seed=3)
        register_replicas(testbed, "file-a", REPLICA_HOSTS, 16)
        selector = CostModelSelector(testbed.grid, testbed.information)
        result = run_selection_trace(
            testbed, selector, CLIENT, "file-a", rounds=1
        )
        assert result.obs is not None
        assert not result.obs.enabled
        assert result.obs.records() == []


class TestTable1FromTrace:
    """The paper's Table 1 columns, reconstructed from the JSONL alone."""

    def test_one_selection_event_per_round(self, trace_run):
        _, records = trace_run
        assert len(events_of(records, "replica.selection")) == ROUNDS

    def test_rows_carry_all_equation_terms(self, trace_run):
        _, records = trace_run
        for event in events_of(records, "replica.selection"):
            assert event["weights"] == [0.8, 0.1, 0.1]
            assert len(event["scores"]) == len(REPLICA_HOSTS)
            for row in event["scores"]:
                # BW_P, CPU_P, IO_P — the three measured factors.
                for factor in ("bandwidth_fraction", "cpu_idle",
                               "io_idle"):
                    assert 0.0 <= row[factor] <= 1.0
                # The weighted terms and the Equation (1) total.
                assert row["bandwidth_term"] == pytest.approx(
                    0.8 * row["bandwidth_fraction"]
                )
                assert row["score"] == pytest.approx(
                    row["bandwidth_term"] + row["cpu_term"]
                    + row["io_term"]
                )

    def test_scores_sorted_best_first_and_margin(self, trace_run):
        _, records = trace_run
        for event in events_of(records, "replica.selection"):
            scores = [row["score"] for row in event["scores"]]
            assert scores == sorted(scores, reverse=True)
            assert event["winner"] == event["scores"][0]["candidate"]
            assert event["winner_score"] == pytest.approx(scores[0])
            assert event["margin"] == pytest.approx(scores[0] - scores[1])

    def test_winner_is_the_fetched_host(self, trace_run):
        result, records = trace_run
        winners = [e["winner"]
                   for e in events_of(records, "replica.selection")]
        assert winners == [chosen for _, chosen, _ in result.fetches]


class TestTransferSpansFromTrace:
    def test_phase_durations_sum_to_elapsed(self, trace_run):
        result, records = trace_run
        transfers = spans_of(records, "gridftp.transfer")
        assert len(transfers) == ROUNDS
        by_parent = {}
        for record in records:
            if record["type"] == "span" and record["parent_id"]:
                by_parent.setdefault(record["parent_id"], []).append(record)
        for span, (_, chosen, elapsed) in zip(transfers, result.fetches):
            assert span["attributes"]["source"] == chosen
            children = by_parent[span["span_id"]]
            assert {c["name"] for c in children} == PHASE_NAMES
            total = sum(c["duration"] for c in children)
            assert total == pytest.approx(span["duration"])
            assert span["duration"] == pytest.approx(elapsed)

    def test_transfer_complete_events_match_records(self, trace_run):
        result, records = trace_run
        completions = events_of(records, "transfer.complete")
        assert len(completions) == ROUNDS
        for event, (_, chosen, elapsed) in zip(completions, result.fetches):
            assert event["source"] == chosen
            assert event["destination"] == CLIENT
            assert event["elapsed"] == pytest.approx(elapsed)
            assert event["payload_bytes"] == megabytes(32)

    def test_monitoring_metrics_recorded(self, trace_run):
        result, _ = trace_run
        snapshot = result.obs.metrics.snapshot()
        measured = [v for k, v in snapshot.items()
                    if k.startswith("nws.measurements")]
        assert measured and all(v > 0 for v in measured)
        errors = [v for k, v in snapshot.items()
                  if k.startswith("nws.forecast_abs_error")]
        assert errors and any(v > 0 for v in errors)
        assert snapshot["costmodel.rankings"] == ROUNDS
        assert snapshot["gridftp.transfer_seconds"] == ROUNDS


#: Every multi-source get, with the protocol its record and span carry.
MULTI_SOURCE_GETS = [
    pytest.param("gridftp-striped", striped_get, {}, id="striped"),
    pytest.param("gridftp-coalloc-bruteforce", brute_force_coallocation_get,
                 {}, id="brute-force"),
    pytest.param("gridftp-coalloc", conservative_coallocation_get,
                 {"block_bytes": megabytes(8)}, id="conservative"),
]


class TestCoallocatedSpans:
    @pytest.mark.parametrize("protocol, get, options", MULTI_SOURCE_GETS)
    def test_root_with_worker_and_phase_children(self, protocol, get, options):
        testbed = build_testbed(seed=5, observe=True)
        grid = testbed.grid
        for host in REPLICA_HOSTS:
            grid.host(host).filesystem.create("big", megabytes(64))
        client = GridFtpClient(grid, CLIENT)
        result = grid.sim.run(until=grid.sim.process(
            get(client, list(REPLICA_HOSTS), "big", **options)
        ))
        record = getattr(result, "record", result)
        assert record.protocol == protocol
        tracer = testbed.obs.tracer
        roots = tracer.finished(f"{protocol}.transfer")
        assert len(roots) == 1
        root = roots[0]
        children = tracer.children_of(root)
        workers = [s for s in children if s.name == "coalloc.worker"]
        assert sorted(w.attributes["server"] for w in workers) == sorted(
            REPLICA_HOSTS
        )
        if protocol == "gridftp-coalloc":
            blocks_by_worker = {
                w.attributes["server"]: len(tracer.children_of(w))
                for w in workers
            }
            assert blocks_by_worker == result.blocks_by_server
        phases = [s for s in children if s.name in PHASE_NAMES]
        total = sum(s.duration for s in phases)
        assert total == pytest.approx(root.duration)
        assert root.duration == pytest.approx(record.elapsed)
