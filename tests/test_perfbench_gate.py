"""The CI perfbench gate: what it accepts and what it rejects."""

import importlib.util
import pathlib

import pytest

GATE = pathlib.Path(__file__).resolve().parent.parent / "scripts" / "perfbench_gate.py"
_spec = importlib.util.spec_from_file_location("perfbench_gate", GATE)
gate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gate)


def result(correct=True, attempted=4, failed=0, cpu_s=1.0, peak_rss_mb=100.0):
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            "cpu_s": {"value": cpu_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        },
    }


@pytest.mark.parametrize("change", [
    pytest.param(result(), id="identical"),
    pytest.param(result(cpu_s=3.0), id="cpu-at-limit"),
    pytest.param(result(peak_rss_mb=200.0), id="rss-at-limit"),
    pytest.param(result(cpu_s=0.2, peak_rss_mb=10.0), id="faster-and-smaller"),
])
def test_accepts(change):
    assert gate.problems(result(), 0, change) == []


@pytest.mark.parametrize("code, change, reason", [
    pytest.param(1, result(correct=False, failed=4), "incorrect", id="incorrect"),
    pytest.param(1, None, "incorrect", id="crashed"),
    pytest.param(1, result(), "exit 1", id="non-zero-exit"),
    pytest.param(0, result(failed=1), "failed share", id="more-failures"),
    pytest.param(0, result(cpu_s=3.1), "cpu_s", id="cpu-over-3x"),
    pytest.param(0, result(peak_rss_mb=201.0), "peak_rss_mb", id="rss-over-2x"),
])
def test_rejects(code, change, reason):
    found = gate.problems(result(), code, change)
    assert found and reason in found[0]


def test_missing_parent_result_fails_closed():
    assert gate.problems(None, 0, result()) == [
        "the parent gave no result to compare with"
    ]
