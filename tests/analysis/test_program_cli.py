"""CLI surface for the program rules: SARIF, --output, --select/--ignore."""

import json
import os

import jsonschema
import pytest

from repro.analysis.gridlint.cli import main
from repro.analysis.gridlint.findings import Finding
from repro.analysis.gridlint.formats import render

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
        "--format", "sarif", "--output", str(out),
        os.path.join(FIXTURES, "gl103_bad"),
    ])
    assert code == 1
    log = json.loads(out.read_text())
    jsonschema.validate(log, SARIF_SCHEMA)
    assert [r["ruleId"] for r in log["runs"][0]["results"]] == ["GL103"]


@pytest.mark.parametrize("flag,expected", [
    ("--select", ["GL103"]),
    ("--ignore", []),
])
def test_select_ignore_apply_to_program_rules(flag, expected, capsys):
    target = os.path.join(FIXTURES, "gl103_bad")
    main([flag, "GL103", target])
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
