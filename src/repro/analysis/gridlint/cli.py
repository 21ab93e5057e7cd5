"""The ``repro-lint`` command line interface.

Usage::

    repro-lint src/                          # file-local + program rules
    repro-lint --cache src/                  # incremental (warm runs skip parsing)
    repro-lint --changed src/                # only report files changed vs origin/main
    repro-lint --format sarif --output lint.sarif src/
    repro-lint --update-baseline src/        # accept current findings
    repro-lint --list-rules

Exit codes: 0 clean, 1 findings reported, 2 usage error.
"""

from __future__ import annotations

import argparse
import os
import sys

from repro.analysis.gridlint.baseline import BASELINE_DEFAULT, Baseline
from repro.analysis.gridlint.engine import lint_paths
from repro.analysis.gridlint.formats import FORMATS, render
from repro.analysis.gridlint.gitdiff import changed_files
from repro.analysis.gridlint.program.cache import AnalysisCache
from repro.analysis.gridlint.program.driver import analyze_project
from repro.analysis.gridlint.rules import RULES

__all__ = ["main"]

#: Default on-disk cache location for ``--cache`` with no argument.
CACHE_DEFAULT = ".gridlint-cache.json"


def _codes(text):
    codes = {c.strip() for c in text.split(",") if c.strip()}
    unknown = codes - set(RULES)
    if unknown:
        raise argparse.ArgumentTypeError(
            f"unknown rule code(s): {', '.join(sorted(unknown))}"
        )
    return codes


def _build_parser():
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
        "--no-program", action="store_true",
        help="file-local rules only; skip the whole-program pass "
             "(GL101-GL105)",
    )
    parser.add_argument(
        "--cache", nargs="?", const=CACHE_DEFAULT, default=None,
        metavar="PATH",
        help="incremental-analysis cache file "
             f"(default when flag given: {CACHE_DEFAULT})",
    )
    parser.add_argument(
        "--jobs", type=int, default=0, metavar="N",
        help="parser worker processes (0 = one per CPU)",
    )
    parser.add_argument(
        "--changed", action="store_true",
        help="only report findings in files changed vs. the merge "
             "base with origin/main (full run outside a git repo)",
    )
    parser.add_argument(
        "--baseline", default=None, metavar="PATH",
        help="baseline file of accepted findings "
             f"(default: {BASELINE_DEFAULT} when it exists)",
    )
    parser.add_argument(
        "--no-baseline", action="store_true",
        help="ignore any baseline file; report everything",
    )
    parser.add_argument(
        "--update-baseline", action="store_true",
        help="rewrite the baseline to accept all current findings",
    )
    parser.add_argument(
        "--stats", action="store_true",
        help="print cache/parse statistics to stderr",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the rule catalog and exit",
    )
    return parser


def _apply_select(findings, select, ignore):
    """select/ignore filtering; GL000 parse errors always survive."""
    ignore = set(ignore or ())
    out = []
    for finding in findings:
        if finding.code == "GL000":
            out.append(finding)
        elif select is not None and finding.code not in select:
            continue
        elif finding.code in ignore:
            continue
        else:
            out.append(finding)
    return out


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)

    if args.list_rules:
        for code in sorted(RULES):
            print(f"{code}  {RULES[code]}")
        return 0
    if not args.paths:
        parser.error("no paths given (try: repro-lint src/)")

    if args.no_program and args.cache is None:
        # Classic file-local path: no model, no cache machinery.
        findings = lint_paths(
            args.paths, select=args.select, ignore=args.ignore,
            respect_pragmas=not args.no_pragmas,
        )
    else:
        cache = AnalysisCache(args.cache)
        findings, stats = analyze_project(
            args.paths,
            program=not args.no_program,
            cache=cache,
            jobs=args.jobs,
            respect_pragmas=not args.no_pragmas,
        )
        findings = _apply_select(findings, args.select, args.ignore)
        if args.stats:
            print(f"repro-lint: {stats.describe()}", file=sys.stderr)

    if args.update_baseline:
        path = args.baseline or BASELINE_DEFAULT
        Baseline.from_findings(findings).save(path)
        print(
            f"repro-lint: baseline written to {path} "
            f"({len(findings)} findings accepted)", file=sys.stderr,
        )
        return 0

    suppressed = 0
    if not args.no_baseline:
        baseline_path = args.baseline or BASELINE_DEFAULT
        # A missing baseline (not yet created) is simply no baseline;
        # a present-but-corrupt one is an error worth stopping for.
        if not os.path.exists(baseline_path):
            baseline_path = None
        if baseline_path is not None:
            try:
                baseline = Baseline.load(baseline_path)
            except (OSError, ValueError, TypeError) as error:
                parser.error(f"cannot load baseline: {error}")
            findings, suppressed = baseline.filter(findings)

    if args.changed:
        changed = changed_files()
        if changed is None:
            print(
                "repro-lint: --changed outside a git checkout; "
                "running on everything", file=sys.stderr,
            )
        else:
            findings = [
                f for f in findings
                if os.path.realpath(f.path) in changed
            ]

    output = render(findings, format=args.format)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(output)
            if output and not output.endswith("\n"):
                handle.write("\n")
    elif output:
        print(output)
    if suppressed and args.stats:
        print(
            f"repro-lint: {suppressed} baselined finding(s) suppressed",
            file=sys.stderr,
        )
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
