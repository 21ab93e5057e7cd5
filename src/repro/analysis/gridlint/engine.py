"""The gridlint pipeline: walk, parse once, lint, apply pragmas.

:func:`lint_paths` reads each file once and parses it once.  The one
tree feeds the file-local rules (GL001-GL007), the pragma table and the
program-fact extraction; the facts of every parsed module then form the
:class:`~repro.analysis.gridlint.program.project.ProjectModel` the
interprocedural rules (GL101-GL103, GL105) run over.
"""

from __future__ import annotations

import ast
import os
from typing import Iterable, Sequence

from repro.analysis.gridlint.findings import Finding
from repro.analysis.gridlint.pragmas import PragmaMap, parse_pragmas
from repro.analysis.gridlint.program.dimensions import check_gl102
from repro.analysis.gridlint.program.guards import check_gl103
from repro.analysis.gridlint.program.model import ModuleInfo, extract_module
from repro.analysis.gridlint.program.project import ProjectModel
from repro.analysis.gridlint.program.retries import check_gl105
from repro.analysis.gridlint.program.taint import check_gl101
from repro.analysis.gridlint.rules import FileContext, check_tree

__all__ = ["collect_files", "lint_paths", "lint_source"]

#: Directory names never descended into.
_SKIP_DIRS = {
    "__pycache__", ".git", ".venv", "venv", "build", "dist",
    ".mypy_cache", ".ruff_cache", ".pytest_cache",
}


def collect_files(paths: Iterable[str]) -> list[str]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    out = []
    for path in paths:
        if os.path.isdir(path):
            for root, dirs, files in os.walk(path):
                dirs[:] = sorted(
                    d for d in dirs
                    if d not in _SKIP_DIRS and not d.endswith(".egg-info")
                )
                for name in sorted(files):
                    if name.endswith(".py"):
                        out.append(os.path.join(root, name))
        else:
            out.append(path)
    return sorted(set(out))


def _context_for(path: str) -> FileContext:
    normalized = path.replace(os.sep, "/")
    return FileContext(
        path,
        is_rng_module=normalized.endswith("sim/random_streams.py"),
        is_units_module=normalized.endswith("repro/units.py"),
        in_gridftp_package="repro/gridftp/" in normalized,
    )


def _lint_module(
    source: str, path: str, context: FileContext | None = None,
) -> tuple[ast.Module | None, list[Finding], PragmaMap]:
    """The per-file step: one parse, the file-local rules, the pragmas.

    An unparsable file yields no tree, a single GL000 finding and an
    empty pragma table, so a parse error is never suppressed.
    """
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as error:
        return None, [Finding(
            path=path, line=error.lineno or 1, col=error.offset or 0,
            code="GL000", message=f"syntax error: {error.msg}",
        )], PragmaMap()
    findings = check_tree(tree, context or _context_for(path))
    pragmas = parse_pragmas(source.splitlines())
    pragmas.expand_multiline(tree)
    return tree, findings, pragmas


def lint_source(
    source: str,
    path: str = "<string>",
    context: FileContext | None = None,
    respect_pragmas: bool = True,
) -> list[Finding]:
    """File-local findings for python source text, sorted."""
    _, findings, pragmas = _lint_module(source, path, context)
    if respect_pragmas:
        findings = [
            f for f in findings if not pragmas.suppresses(f.line, f.code)
        ]
    return sorted(findings)


def lint_paths(
    paths: Sequence[str],
    *,
    select: Iterable[str] | None = None,
    ignore: Iterable[str] | None = None,
    respect_pragmas: bool = True,
) -> list[Finding]:
    """Lint files and directories with every rule; sorted Findings.

    ``select``/``ignore`` are iterables of rule codes; ``select`` keeps
    only those codes, ``ignore`` drops them (GL000 read and parse
    errors always survive both).
    """
    findings: list[Finding] = []
    pragmas: dict[str, PragmaMap] = {}
    modules: dict[str, ModuleInfo] = {}
    for path in collect_files(paths):
        try:
            with open(path, "rb") as handle:
                source = handle.read().decode("utf-8")
        except (OSError, UnicodeDecodeError) as error:
            findings.append(Finding(
                path=path, line=1, col=0, code="GL000",
                message=f"cannot read file: {error}",
            ))
            continue
        tree, local, pragmas[path] = _lint_module(source, path)
        findings.extend(local)
        if tree is not None:
            # Two files mapping to one module name: the later one wins.
            info = extract_module(path, tree)
            modules[info.module] = info
    model = ProjectModel(modules[name] for name in sorted(modules))
    # Each rule reports a module's findings at that module's path; at
    # one location they rank file-local, GL101, GL102, GL105, GL103.
    for check in (check_gl101, check_gl102, check_gl105, check_gl103):
        for found in check(model).values():
            findings.extend(found)

    selected = set(select) if select else None
    ignored = set(ignore or ())
    kept = []
    for finding in findings:
        if finding.code != "GL000":
            if selected is not None and finding.code not in selected:
                continue
            if finding.code in ignored:
                continue
            if respect_pragmas and pragmas[finding.path].suppresses(
                    finding.line, finding.code):
                continue
        kept.append(finding)
    return sorted(kept)
