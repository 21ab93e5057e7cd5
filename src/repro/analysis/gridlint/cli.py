"""The ``repro-lint`` command line interface.

Usage::

    repro-lint src/                          # every rule, file-local + program
    repro-lint --select GL102 src/           # only these codes
    repro-lint --format sarif --output lint.sarif src/
    repro-lint --list-rules

Exit codes: 0 clean, 1 findings reported, 2 usage error.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from repro.analysis.gridlint.engine import lint_paths
from repro.analysis.gridlint.formats import FORMATS, render
from repro.analysis.gridlint.rules import RULES

__all__ = ["main"]


def _codes(text: str) -> set[str]:
    codes = {c.strip() for c in text.split(",") if c.strip()}
    unknown = codes - set(RULES)
    if unknown:
        raise argparse.ArgumentTypeError(
            f"unknown rule code(s): {', '.join(sorted(unknown))}"
        )
    return codes


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description="Grid-aware lint: determinism, sim-time discipline "
                    "and unit safety for the repro codebase.",
    )
    parser.add_argument(
        "paths", nargs="*", help="files or directories to lint"
    )
    parser.add_argument(
        "--format", choices=sorted(FORMATS), default="text",
        help="output format (default: text)",
    )
    parser.add_argument(
        "--output", metavar="FILE",
        help="write the report to FILE instead of stdout",
    )
    parser.add_argument(
        "--select", type=_codes, metavar="GLxxx[,GLyyy]",
        help="only report these rule codes",
    )
    parser.add_argument(
        "--ignore", type=_codes, metavar="GLxxx[,GLyyy]",
        help="skip these rule codes",
    )
    parser.add_argument(
        "--no-pragmas", action="store_true",
        help="report findings even where a pragma suppresses them",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the rule catalog and exit",
    )
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)

    if args.list_rules:
        for code in sorted(RULES):
            print(f"{code}  {RULES[code]}")
        return 0
    if not args.paths:
        parser.error("no paths given (try: repro-lint src/)")

    findings = lint_paths(
        args.paths, select=args.select, ignore=args.ignore,
        respect_pragmas=not args.no_pragmas,
    )
    output = render(findings, format=args.format)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(output)
            if output and not output.endswith("\n"):
                handle.write("\n")
    elif output:
        print(output)
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
