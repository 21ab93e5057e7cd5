"""CLI surface for gridlint v2: SARIF, baseline, --changed, --output."""

import json
import os
import subprocess

import jsonschema
import pytest

from repro.analysis.gridlint.baseline import Baseline
from repro.analysis.gridlint.cli import main
from repro.analysis.gridlint.findings import Finding
from repro.analysis.gridlint.formats import render
from repro.analysis.gridlint.gitdiff import changed_files

FIXTURES = os.path.join(
    os.path.dirname(__file__), "fixtures", "program"
)

#: Trimmed-but-strict subset of the SARIF 2.1.0 schema: the properties
#: GitHub code scanning actually consumes, with the 2.1.0 constraints
#: (version const, 1-based regions, rule metadata shape).
SARIF_SCHEMA = {
    "type": "object",
    "required": ["version", "runs"],
    "properties": {
        "version": {"const": "2.1.0"},
        "$schema": {"type": "string", "pattern": "sarif"},
        "runs": {
            "type": "array",
            "minItems": 1,
            "items": {
                "type": "object",
                "required": ["tool", "results"],
                "properties": {
                    "tool": {
                        "type": "object",
                        "required": ["driver"],
                        "properties": {
                            "driver": {
                                "type": "object",
                                "required": ["name"],
                                "properties": {
                                    "rules": {
                                        "type": "array",
                                        "items": {
                                            "type": "object",
                                            "required": ["id"],
                                            "properties": {
                                                "shortDescription": {
                                                    "type": "object",
                                                    "required": ["text"],
                                                },
                                            },
                                        },
                                    },
                                },
                            },
                        },
                    },
                    "results": {
                        "type": "array",
                        "items": {
                            "type": "object",
                            "required": ["ruleId", "message", "locations"],
                            "properties": {
                                "message": {
                                    "type": "object",
                                    "required": ["text"],
                                },
                                "level": {
                                    "enum": ["none", "note", "warning",
                                             "error"],
                                },
                                "locations": {
                                    "type": "array",
                                    "items": {
                                        "type": "object",
                                        "properties": {
                                            "physicalLocation": {
                                                "type": "object",
                                                "properties": {
                                                    "artifactLocation": {
                                                        "type": "object",
                                                        "required": ["uri"],
                                                    },
                                                    "region": {
                                                        "type": "object",
                                                        "properties": {
                                                            "startLine": {
                                                                "type": "integer",
                                                                "minimum": 1,
                                                            },
                                                            "startColumn": {
                                                                "type": "integer",
                                                                "minimum": 1,
                                                            },
                                                        },
                                                    },
                                                },
                                            },
                                        },
                                    },
                                },
                            },
                        },
                    },
                },
            },
        },
    },
}


def finding(path="src/x.py", line=3, col=0, code="GL101", message="m"):
    return Finding(path=path, line=line, col=col, code=code, message=message)


def test_sarif_output_validates():
    log = json.loads(render([finding(), finding(code="GL001")], "sarif"))
    jsonschema.validate(log, SARIF_SCHEMA)


def test_sarif_columns_are_one_based():
    log = json.loads(render([finding(col=0)], "sarif"))
    region = (log["runs"][0]["results"][0]["locations"][0]
              ["physicalLocation"]["region"])
    assert region["startColumn"] == 1
    assert region["startLine"] == 3


def test_sarif_embeds_the_rule_catalog():
    log = json.loads(render([], "sarif"))
    rules = log["runs"][0]["tool"]["driver"]["rules"]
    ids = [r["id"] for r in rules]
    for code in ("GL001", "GL101", "GL102", "GL103", "GL105"):
        assert code in ids
    jsonschema.validate(log, SARIF_SCHEMA)


def test_cli_sarif_end_to_end(tmp_path):
    out = tmp_path / "lint.sarif"
    code = main([
        "--format", "sarif", "--output", str(out), "--no-baseline",
        os.path.join(FIXTURES, "gl103_bad"),
    ])
    assert code == 1
    log = json.loads(out.read_text())
    jsonschema.validate(log, SARIF_SCHEMA)
    assert [r["ruleId"] for r in log["runs"][0]["results"]] == ["GL103"]


def test_baseline_roundtrip_suppresses_by_count(tmp_path):
    findings = [finding(line=1), finding(line=9), finding(code="GL102")]
    baseline = Baseline.from_findings(findings)
    path = str(tmp_path / "base.json")
    baseline.save(path)
    loaded = Baseline.load(path)
    kept, suppressed = loaded.filter(findings)
    assert kept == [] and suppressed == 3
    # A NEW violation of a baselined rule still surfaces.
    extra = finding(line=20)
    kept, suppressed = loaded.filter(findings + [extra])
    assert suppressed == 3
    assert [f.line for f in kept] == [20]


def test_baseline_never_hides_parse_errors(tmp_path):
    bad = finding(code="GL000")
    baseline = Baseline.from_findings([bad])
    assert baseline.suppressions == {}
    kept, _ = baseline.filter([bad])
    assert kept == [bad]


def test_cli_update_baseline_then_clean(tmp_path, capsys):
    target = os.path.join(FIXTURES, "gl103_bad")
    base = str(tmp_path / "base.json")
    assert main(["--baseline", base, target]) == 1
    assert main(["--update-baseline", "--baseline", base, target]) == 0
    capsys.readouterr()
    assert main(["--baseline", base, target]) == 0
    out = capsys.readouterr().out
    assert "0 findings" in out
    # --no-baseline audits everything again.
    assert main(["--no-baseline", "--baseline", base, target]) == 1


def test_changed_files_sees_the_worktree(tmp_path):
    subprocess.run(["git", "init", "-q", str(tmp_path)], check=True)
    (tmp_path / "a.py").write_text("A = 1\n")
    subprocess.run(
        ["git", "-C", str(tmp_path), "add", "a.py"], check=True
    )
    env_cfg = ["-c", "user.email=t@t", "-c", "user.name=t"]
    subprocess.run(
        ["git", *env_cfg, "-C", str(tmp_path), "commit", "-qm", "seed"],
        check=True,
    )
    (tmp_path / "b.py").write_text("B = 2\n")  # untracked
    (tmp_path / "a.py").write_text("A = 11\n")  # modified
    changed = changed_files(cwd=str(tmp_path))
    names = {os.path.basename(p) for p in changed}
    assert names == {"a.py", "b.py"}


def test_changed_files_outside_git_returns_none(tmp_path):
    assert changed_files(cwd=str(tmp_path)) is None


def test_cli_changed_filters_reporting(tmp_path, capsys, monkeypatch):
    """--changed drops findings in files git says are unchanged."""
    import repro.analysis.gridlint.cli as cli_mod

    target = os.path.join(FIXTURES, "gl103_bad")
    leak = os.path.realpath(os.path.join(target, "leak.py"))
    monkeypatch.setattr(
        cli_mod, "changed_files", lambda: {leak}
    )
    assert main(["--no-baseline", "--changed", target]) == 1
    capsys.readouterr()
    monkeypatch.setattr(cli_mod, "changed_files", lambda: set())
    assert main(["--no-baseline", "--changed", target]) == 0


@pytest.mark.parametrize("flag,expected", [
    ("--select", ["GL103"]),
    ("--ignore", []),
])
def test_select_ignore_apply_to_program_rules(flag, expected, capsys):
    target = os.path.join(FIXTURES, "gl103_bad")
    main(["--no-baseline", flag, "GL103", target])
    out = capsys.readouterr().out
    reported = [
        line.split()[1].rstrip(":") for line in out.splitlines()
        if ": GL" in line
    ]
    codes = [
        part for line in out.splitlines() for part in line.split()
        if part.startswith("GL") and len(part) == 5
    ]
    assert codes == expected, (reported, out)
