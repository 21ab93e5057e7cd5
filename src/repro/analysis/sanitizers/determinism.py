"""The determinism harness: same seed, same trace — or fail loudly.

Every exhibit in the paper reproduction must be a pure function of its
root seed.  The harness runs a scenario twice (or more) under the
observability capture layer (PR 1), canonicalises each run's merged
metric/span/event stream, and compares SHA-256 digests.  Any divergence
— a stray wall-clock read, an unseeded RNG, ordering nondeterminism —
shows up as differing digests, and the report pinpoints the first
diverging record.

Programmatic use::

    from repro.analysis.sanitizers import check_determinism
    report = check_determinism(lambda: run_table1(seed=0, file_size_mb=64))
    assert report.ok, report.describe()

Command line (CI's sanitize job)::

    python -m repro.analysis.sanitizers.determinism fig3 table1 --quick
"""

from __future__ import annotations

import hashlib
import json
import re
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from typing import Any

from repro.obs import capture

__all__ = [
    "DeterminismReport",
    "Divergence",
    "check_determinism",
    "check_profile_neutrality",
    "run_traced",
    "trace_digest",
]

#: CPython reprs embed addresses (``<Host src at 0x7f...>``) that differ
#: run-to-run without being real nondeterminism; scrub them.
_ADDRESS_RE = re.compile(r" at 0x[0-9a-fA-F]+")


def _canonical(record: object) -> str:
    """Stable JSON text for one trace record."""
    text = json.dumps(record, sort_keys=True, default=repr)
    return _ADDRESS_RE.sub("", text)


def trace_digest(records: Sequence[object]) -> str:
    """SHA-256 hex digest over a canonicalised record stream."""
    digest = hashlib.sha256()
    for record in records:
        digest.update(_canonical(record).encode())
        digest.update(b"\n")
    return digest.hexdigest()


def run_traced(scenario: Callable[[], Any]) -> tuple[Any, list[Any]]:
    """Run ``scenario()`` under capture; returns (result, records)."""
    with capture() as collector:
        result = scenario()
    return result, collector.records()


@dataclass(frozen=True)
class Divergence:
    """First difference between two same-seed runs."""

    run_a: int
    run_b: int
    index: int
    record_a: str | None
    record_b: str | None

    def __str__(self) -> str:
        return (
            f"runs {self.run_a} and {self.run_b} diverge at record "
            f"#{self.index}:\n  run {self.run_a}: {self.record_a!r}\n"
            f"  run {self.run_b}: {self.record_b!r}"
        )


@dataclass
class DeterminismReport:
    """Digest comparison across N same-seed runs of one scenario."""

    name: str
    digests: list[str] = field(default_factory=list)
    record_counts: list[int] = field(default_factory=list)
    divergence: Divergence | None = None

    @property
    def ok(self) -> bool:
        return len(set(self.digests)) <= 1

    @property
    def runs(self) -> int:
        return len(self.digests)

    def describe(self) -> str:
        if self.ok:
            return (
                f"{self.name}: deterministic over {self.runs} runs "
                f"(digest {self.digests[0][:12]}..., "
                f"{self.record_counts[0]} records)"
                if self.digests else f"{self.name}: no runs"
            )
        lines = [f"{self.name}: NONDETERMINISTIC"]
        for index, (digest, count) in enumerate(
            zip(self.digests, self.record_counts)
        ):
            lines.append(
                f"  run {index}: digest {digest[:16]}... "
                f"({count} records)"
            )
        if self.divergence is not None:
            lines.append(str(self.divergence))
        return "\n".join(lines)


def _first_divergence(run_a: int, run_b: int, records_a: Sequence[object],
                      records_b: Sequence[object]) -> Divergence | None:
    canon_a = [_canonical(r) for r in records_a]
    canon_b = [_canonical(r) for r in records_b]
    limit = max(len(canon_a), len(canon_b))
    for index in range(limit):
        a = canon_a[index] if index < len(canon_a) else None
        b = canon_b[index] if index < len(canon_b) else None
        if a != b:
            return Divergence(
                run_a=run_a, run_b=run_b, index=index,
                record_a=a, record_b=b,
            )
    return None


def check_determinism(scenario: Callable[[], Any], runs: int = 2,
                      name: str = "scenario") -> DeterminismReport:
    """Run ``scenario()`` ``runs`` times and compare trace digests.

    ``scenario`` must be a zero-argument callable that seeds everything
    itself (the point is that nothing *outside* it may influence the
    trace).  Returns a :class:`DeterminismReport`.
    """
    if runs < 2:
        raise ValueError("need at least 2 runs to compare")
    report = DeterminismReport(name=name)
    traces: list[list[Any]] = []
    for _ in range(runs):
        _, records = run_traced(scenario)
        traces.append(records)
        report.digests.append(trace_digest(records))
        report.record_counts.append(len(records))
    if not report.ok:
        baseline = report.digests[0]
        for index in range(1, runs):
            if report.digests[index] != baseline:
                report.divergence = _first_divergence(
                    0, index, traces[0], traces[index]
                )
                break
    return report


def check_profile_neutrality(scenario: Callable[[], Any],
                             name: str = "scenario") -> DeterminismReport:
    """Digest one plain run against one kernel-profiled run.

    The perf layer's contract (see :mod:`repro.obs.perf`) is that
    profiling is invisible to the simulation: attaching the kernel
    profiler must not change the captured metric/span/event stream by a
    single byte.  Returns a :class:`DeterminismReport` whose two digests
    are the unprofiled and profiled runs.
    """
    from repro.obs.perf import profile

    report = DeterminismReport(name=f"{name} [profile off/on]")
    _, plain = run_traced(scenario)
    with profile():
        _, profiled = run_traced(scenario)
    for records in (plain, profiled):
        report.digests.append(trace_digest(records))
        report.record_counts.append(len(records))
    if not report.ok:
        report.divergence = _first_divergence(0, 1, plain, profiled)
    return report


def main(argv: Sequence[str] | None = None) -> int:
    """Run the harness over named experiments (CI's sanitize gate)."""
    import argparse

    from repro.experiments.runner import EXPERIMENTS

    parser = argparse.ArgumentParser(
        description="Verify experiments are deterministic: run each "
                    "twice from one seed and diff trace digests.",
    )
    parser.add_argument(
        "experiments", nargs="*", default=["fig3", "table1"],
        help="experiment ids (default: fig3 table1)",
    )
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--runs", type=int, default=2)
    parser.add_argument(
        "--profile", action="store_true",
        help="also prove kernel-profiler neutrality: digest a plain "
             "run against a profiled run of each experiment",
    )
    args = parser.parse_args(argv)

    unknown = [e for e in args.experiments if e not in EXPERIMENTS]
    if unknown:
        parser.error(f"unknown experiment(s): {', '.join(unknown)}")

    failed = 0
    for experiment_id in args.experiments:
        runner = EXPERIMENTS[experiment_id]
        report = check_determinism(
            lambda: runner(args.quick, args.seed),
            runs=args.runs, name=experiment_id,
        )
        print(report.describe())
        if not report.ok:
            failed += 1
        if args.profile:
            neutrality = check_profile_neutrality(
                lambda: runner(args.quick, args.seed),
                name=experiment_id,
            )
            print(neutrality.describe())
            if not neutrality.ok:
                failed += 1
    return 1 if failed else 0


if __name__ == "__main__":
    import sys

    sys.exit(main())
