"""gridlint — codebase-specific static checks for the reproduction.

The rule catalog lives in :mod:`repro.analysis.gridlint.rules` (GL001
wall-clock, GL002 rogue RNG, GL003 unordered iteration, GL004 inline
unit arithmetic, GL005 mutable defaults, GL006 swallowed exceptions,
GL007 raw data-channel use); the whole-program rules (GL101-GL103,
GL105) live in :mod:`repro.analysis.gridlint.program`.  The pipeline,
pragma handling and output formats are documented in
``docs/static_analysis.md``.

Programmatic use::

    from repro.analysis.gridlint import lint_paths
    findings = lint_paths(["src/"])

Command line::

    repro-lint src/
    python -m repro.analysis.gridlint --format json src/
"""

from repro.analysis.gridlint.cli import main
from repro.analysis.gridlint.engine import (
    collect_files,
    lint_paths,
    lint_source,
)
from repro.analysis.gridlint.findings import Finding
from repro.analysis.gridlint.formats import FORMATS, render
from repro.analysis.gridlint.rules import RULES

__all__ = [
    "FORMATS",
    "Finding",
    "RULES",
    "collect_files",
    "lint_paths",
    "lint_source",
    "main",
    "render",
]
