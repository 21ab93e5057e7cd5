"""Gate a change on perfbench, measured against its parent commit.

Usage, from the root of the change's checkout::

    git worktree add ../parent HEAD^1
    python3 scripts/perfbench_gate.py ../parent

Each workload runs ``perfbench/run.py --seed 0 --seconds 10 --trace 0``
in the parent's checkout and then in this one, so both run on the same
host and each with its own ``src/``.  The gate fails (exit 1) if the
change exits non-zero or reports an incorrect run, if the parent gives
no result to compare with, if the change fails a larger share of
repetitions than the parent, or if it takes more than ``CPU_LIMIT``
times the parent's ``cpu_s`` or ``PEAK_RSS_LIMIT`` times its
``peak_rss_mb``.  The limits are loose on purpose: one seed-0 run per
side resolves gross regressions only, and the paired-runs rule in
``docs/performance.md`` is what backs a claimed gain.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("paper3_selection", "frontdoor_brownout", "grid_scale_1000")
SECONDS = 10
CPU_LIMIT = 3.0
PEAK_RSS_LIMIT = 2.0


def run(checkout, workload):
    """Run one workload in ``checkout``: (exit code, result or None)."""
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "0", "--seconds", str(SECONDS), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True,
    )
    print(completed.stdout, end="")
    print(completed.stderr, end="", file=sys.stderr)
    lines = completed.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    return completed.returncode, result


def failed_share(result):
    return result["failed"] / max(1, result["attempted"])


def metric(result, name):
    return result["metrics"][name]["value"]


def problems(parent, code, change):
    """Every reason to reject the change's run (empty list: it passes).

    ``parent`` and ``change`` are None when that side printed no result.
    """
    if code != 0 or change is None or not change["correct"]:
        return [f"the change's run is incorrect or failed (exit {code})"]
    if parent is None:
        return ["the parent gave no result to compare with"]
    found = []
    if failed_share(change) > failed_share(parent):
        found.append(
            f"failed share {failed_share(change):.3f} "
            f"> parent's {failed_share(parent):.3f}"
        )
    for name, limit in (("cpu_s", CPU_LIMIT),
                        ("peak_rss_mb", PEAK_RSS_LIMIT)):
        ratio = metric(change, name) / metric(parent, name)
        if ratio > limit:
            found.append(f"{name} is {ratio:.2f}x the parent's "
                         f"(limit {limit}x)")
    return found


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path,
                        help="checkout of the parent commit")
    args = parser.parse_args(argv)

    rejected = False
    for workload in WORKLOADS:
        print(f"== {workload}: parent")
        _, parent = run(args.parent, workload)
        print(f"== {workload}: change")
        code, change = run(ROOT, workload)
        if parent is not None and change is not None:
            print(f"{workload}: " + ", ".join(
                f"{name} {metric(change, name):.3f} "
                f"(parent {metric(parent, name):.3f})"
                for name in ("cpu_s", "peak_rss_mb")
            ))
        found = problems(parent, code, change)
        for problem in found:
            print(f"FAIL {workload}: {problem}")
        rejected = rejected or bool(found)
    return 1 if rejected else 0


if __name__ == "__main__":
    sys.exit(main())
