"""Planted-bug / clean-twin fixtures for the interprocedural rules."""

import ast
import os
from collections import Counter

import pytest

from repro.analysis.gridlint import collect_files, lint_paths

FIXTURES = os.path.join(
    os.path.dirname(__file__), "fixtures", "program"
)


def program_codes(case):
    """Interprocedural finding codes for one fixture directory."""
    findings = lint_paths([os.path.join(FIXTURES, case)])
    return [f.code for f in findings if f.code.startswith("GL1")]


@pytest.mark.parametrize("case,code", [
    ("gl101_bad", "GL101"),
    ("gl102_bad", "GL102"),
    ("gl103_bad", "GL103"),
    ("gl105_bad", "GL105"),
])
def test_planted_bug_is_detected(case, code):
    codes = program_codes(case)
    assert code in codes
    assert set(codes) == {code}


@pytest.mark.parametrize("case", [
    "gl101_ok", "gl102_ok", "gl103_ok", "gl105_ok",
])
def test_clean_twin_stays_clean(case):
    assert program_codes(case) == []


def test_gl101_finding_names_the_sink():
    findings = lint_paths([os.path.join(FIXTURES, "gl101_bad")])
    taint = [f for f in findings if f.code == "GL101"]
    assert len(taint) == 1
    assert taint[0].path.endswith("user.py")
    assert "schedul" in taint[0].message


def test_gl102_flags_both_call_and_arithmetic():
    findings = lint_paths([os.path.join(FIXTURES, "gl102_bad")])
    messages = [f.message for f in findings if f.code == "GL102"]
    assert len(messages) == 2
    assert any("expects" in m for m in messages)
    assert any("+" in m for m in messages)


def test_gl103_anchors_at_the_arming_site():
    findings = lint_paths([os.path.join(FIXTURES, "gl103_bad")])
    leaks = [f for f in findings if f.code == "GL103"]
    assert len(leaks) == 1
    assert leaks[0].path.endswith("leak.py")
    assert "cancel" in leaks[0].message


def test_gl105_anchors_at_the_loop_and_names_the_path():
    findings = lint_paths([os.path.join(FIXTURES, "gl105_bad")])
    storms = [f for f in findings if f.code == "GL105"]
    assert len(storms) == 1
    assert storms[0].path.endswith("user.py")
    assert "read_block" in storms[0].message
    assert "backoff" in storms[0].message.lower()


def test_src_tree_is_clean_of_program_findings():
    """The real codebase holds zero GL101-GL105 findings."""
    src = os.path.join(
        os.path.dirname(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__)))),
        "src",
    )
    findings = lint_paths([src])
    assert [str(f) for f in findings if f.code.startswith("GL1")] == []


def test_each_file_is_parsed_once(monkeypatch):
    """One ``ast.parse`` per file feeds both rule layers."""
    target = os.path.join(FIXTURES, "gl103_bad")
    parsed = Counter()
    real_parse = ast.parse

    def counting_parse(source, filename="<unknown>", *args, **kwargs):
        parsed[filename] += 1
        return real_parse(source, filename, *args, **kwargs)

    monkeypatch.setattr(ast, "parse", counting_parse)
    findings = lint_paths([target])
    assert [f.code for f in findings] == ["GL103"]
    assert parsed == Counter(collect_files([target]))
