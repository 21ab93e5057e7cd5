"""Output formatters for gridlint findings: text, json, github, sarif."""

from __future__ import annotations

import json
from collections.abc import Callable, Sequence
from typing import Any

from repro.analysis.gridlint.findings import Finding
from repro.analysis.gridlint.rules import RULES

__all__ = ["FORMATS", "render"]

#: Tool metadata stamped into SARIF logs.
_SARIF_SCHEMA = (
    "https://docs.oasis-open.org/sarif/sarif/v2.1.0/errata01/os/schemas/"
    "sarif-schema-2.1.0.json"
)
_TOOL_URI = "https://example.invalid/repro/gridlint"
_TOOL_VERSION = "2.0.0"


def _render_text(findings: Sequence[Finding]) -> str:
    lines = [str(f) for f in findings]
    total = len(findings)
    lines.append(
        "1 finding" if total == 1 else f"{total} findings"
    )
    return "\n".join(lines)


def _render_json(findings: Sequence[Finding]) -> str:
    return json.dumps([f.as_dict() for f in findings], indent=2)


def _render_github(findings: Sequence[Finding]) -> str:
    """GitHub Actions workflow commands — annotate the PR diff."""
    return "\n".join(
        f"::error file={f.path},line={f.line},col={f.col},"
        f"title={f.code}::{f.message}"
        for f in findings
    )


def _render_sarif(findings: Sequence[Finding]) -> str:
    """SARIF 2.1.0 — the code-scanning interchange format.

    The full rule catalog is embedded so GitHub can render rule help
    even for codes with no findings this run.  gridlint columns are
    0-based; SARIF regions are 1-based, hence the ``col + 1``.
    """
    codes = sorted(RULES)
    index = {code: i for i, code in enumerate(codes)}
    rules = [
        {
            "id": code,
            "name": code,
            "shortDescription": {"text": RULES[code]},
            "defaultConfiguration": {"level": "error"},
        }
        for code in codes
    ]
    results = []
    for f in findings:
        uri = f.path.replace("\\", "/")
        if uri.startswith("./"):
            uri = uri[2:]
        result: dict[str, Any] = {
            "ruleId": f.code,
            "level": "error",
            "message": {"text": f.message},
            "locations": [{
                "physicalLocation": {
                    "artifactLocation": {
                        "uri": uri,
                        "uriBaseId": "%SRCROOT%",
                    },
                    "region": {
                        "startLine": max(1, f.line),
                        "startColumn": f.col + 1,
                    },
                },
            }],
        }
        if f.code in index:
            result["ruleIndex"] = index[f.code]
        results.append(result)
    log = {
        "$schema": _SARIF_SCHEMA,
        "version": "2.1.0",
        "runs": [{
            "tool": {
                "driver": {
                    "name": "gridlint",
                    "informationUri": _TOOL_URI,
                    "version": _TOOL_VERSION,
                    "rules": rules,
                },
            },
            "columnKind": "utf16CodeUnits",
            "results": results,
        }],
    }
    return json.dumps(log, indent=2)


FORMATS: dict[str, Callable[[Sequence[Finding]], str]] = {
    "text": _render_text,
    "json": _render_json,
    "github": _render_github,
    "sarif": _render_sarif,
}


def render(findings: Sequence[Finding], format: str = "text") -> str:
    """Render findings in the named format (text|json|github|sarif)."""
    try:
        formatter = FORMATS[format]
    except KeyError:
        raise ValueError(
            f"unknown format {format!r}; choose from {sorted(FORMATS)}"
        ) from None
    return formatter(findings)
