"""The repository's benchmark: three workloads of the grid simulator.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

``--trace 0`` runs the untraced pass and reports the end-to-end
metrics.  ``--trace 1`` runs the untraced pass and then a traced pass
(every layer boundary in ``layers.py`` wrapped in a span) and reports
the per-layer metrics, the tracing overhead and the unattributed
remainder.  Each pass is its own process (``worker.py``), so peak RSS
and stderr belong to one workload.

Every repetition's outputs are checked: all repetitions of a run must
agree, set-up must process no simulator event, the outputs must satisfy
the workload's invariants and, for a pinned seed, equal
``reference.json``.  Any mismatch makes the run incorrect and the exit
code non-zero.  The last line of stdout is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--write-reference`` stores this seed's outputs as the pinned
reference instead of comparing against it.
"""

import argparse
import json
import os
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from layers import MOVES, SPANS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference.json"

WORKLOAD_NAMES = ("paper3_selection", "frontdoor_brownout", "grid_scale_1000")
#: Repetitions of an untraced pass: segment times need two to compare.
MIN_REPS = 2
#: Set-up samples behind the reported ``setup_s``: at least this many,
#: and more until this much CPU time went into them.
MIN_SETUPS = 5
SETUP_SECONDS = 0.5
#: Workers of a pass run at once, one per CPU up to this many.  The
#: host's slow spells hit each CPU at different times, so pooling their
#: repetitions gives every simulation segment more chances to run fast.
PARALLEL = 2
#: Wall-clock budget for the whole command, seconds.
BUDGET_S = 170.0

END_TO_END_UNITS = {
    "cpu_s": "s",
    "setup_s": "s",
    "sim_s_per_cpu_s": "sim-s/s",
    "peak_rss_mb": "MB",
    "served_ratio": "fraction",
}

#: Per-layer metrics beside ``<span>.calls`` and ``<span>.self_s``.
EXTRA_LAYER_UNITS = {
    "sim.events": "count",
    "sim.queue_high_water": "count",
    "network.solver.solves": "count",
    "network.solver.cache_hits": "count",
    "network.solver.cache_hit_ratio": "fraction",
    "gridftp.attempts_per_request": "ratio",
    "controlplane.door.offered": "count",
    "controlplane.door.completed": "count",
    "controlplane.door.failed": "count",
    "controlplane.door.shed": "count",
    "controlplane.door.dedup": "count",
    "selection.decisions": "count",
    "selection.oracle_matches": "count",
    "logging.warning_lines": "count",
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_s": "s",
    "trace.unattributed_s": "s",
}


def layer_units():
    """Every per-layer metric name -> unit, in report order."""
    units = {}
    for span in SPANS:
        units[f"{span}.calls"] = "count"
        units[f"{span}.self_s"] = "s"
    units.update(EXTRA_LAYER_UNITS)
    return units


# -- running the passes ------------------------------------------------------

class PassFailed(Exception):
    """A worker process crashed or ran out of time."""


def _run_worker(command, timeout):
    try:
        completed = subprocess.run(
            command, cwd=ROOT, capture_output=True, text=True,
            timeout=max(1.0, timeout),
        )
    except subprocess.TimeoutExpired as error:
        raise PassFailed(f"worker exceeded {timeout:.0f} s") from error
    if completed.returncode != 0:
        tail = completed.stderr.strip().splitlines()[-5:]
        raise PassFailed(
            f"worker exited {completed.returncode}: " + " | ".join(tail)
        )
    lines = completed.stdout.strip().splitlines()
    return json.loads(lines[-1]), len(completed.stderr.splitlines())


def run_pass(workload, seed, seconds, traced, timeout, processes=1):
    """Run ``processes`` identical workers at once and pool their
    repetitions; returns (pooled result, stderr lines per repetition).

    The first worker's repetitions come first, so ``reps[0]`` is a
    repetition that ran in a fresh process.
    """
    command = [
        sys.executable, str(HERE / "worker.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds),
        "--min-reps", str(1 if traced else MIN_REPS),
        "--min-setups", str(1 if traced else MIN_SETUPS),
        "--setup-seconds", str(0.0 if traced else SETUP_SECONDS),
    ]
    if traced:
        command.append("--traced")
    with ThreadPoolExecutor(processes) as pool:
        futures = [
            pool.submit(_run_worker, command, timeout)
            for _ in range(processes)
        ]
        finished = [future.result() for future in futures]
    pooled = {
        "reps": [rep for result, _ in finished for rep in result["reps"]],
        "setup_cpu_s": [
            sample for result, _ in finished
            for sample in result["setup_cpu_s"]
        ],
        "environment": finished[0][0]["environment"],
    }
    stderr_lines = sum(lines for _, lines in finished)
    return pooled, stderr_lines // len(pooled["reps"])


# -- correctness -------------------------------------------------------------

def invariant_problems(workload, outputs):
    """Seed-independent properties every run's outputs must have."""
    problems = []
    offered, served = outputs["offered"], outputs["served"]
    if offered < 1:
        problems.append("no requests offered")
    if not 0 < served <= offered:
        problems.append(f"served {served} outside (0, {offered}]")
    if workload == "frontdoor_brownout":
        # A joined duplicate whose primary is shed counts twice, so the
        # outcomes may sum past the offered count but never fall short.
        parts = ("completed", "failed", "shed", "dedup", "outstanding")
        total = sum(outputs[part] for part in parts)
        if total < offered:
            problems.append(
                f"door outcomes sum to {total}, offered {offered}"
            )
    else:
        chosen = outputs["chosen"]
        if len(chosen) != offered or outputs["selections"] != offered:
            problems.append(f"{len(chosen)} picks for {offered} rounds")
        if not 0 <= outputs["oracle_matches"] <= offered:
            problems.append("oracle matches out of range")
    return problems


def load_reference(path):
    if not path.is_file():
        return {}
    return json.loads(path.read_text())


def format_reference(reference):
    """JSON with one line per pinned (workload, seed), so a re-pin
    shows in a diff as the lines of the seeds it changed."""
    blocks = []
    for workload in sorted(reference):
        seeds = sorted(reference[workload].items(), key=lambda kv: int(kv[0]))
        lines = [
            f'  "{seed}": {json.dumps(outputs, sort_keys=True)}'
            for seed, outputs in seeds
        ]
        blocks.append(f' "{workload}": {{\n' + ",\n".join(lines) + "\n }")
    return "{\n" + ",\n".join(blocks) + "\n}\n"


def reference_problems(expected, outputs):
    """Differences between pinned and observed outputs, by key."""
    problems = []
    for key in sorted(set(expected) | set(outputs)):
        want, got = expected.get(key), outputs.get(key)
        if want == got:
            continue
        if isinstance(want, list) and isinstance(got, list):
            first = next(
                (i for i, (a, b) in enumerate(zip(want, got)) if a != b),
                min(len(want), len(got)),
            )
            problems.append(f"{key} differs from index {first}")
        else:
            problems.append(f"{key}: pinned {want!r}, got {got!r}")
    return problems


def check(workload, seed, reps, reference):
    """Every problem with a run's repetitions (empty list: correct)."""
    problems = []
    first = reps[0]["outputs"]
    for index, rep in enumerate(reps):
        if rep["events_in_setup"]:
            problems.append(
                f"repetition {index}: set-up processed "
                f"{rep['events_in_setup']} events"
            )
        if rep["outputs"] != first:
            problems.append(
                f"repetition {index}: outputs differ from the first"
            )
    problems.extend(invariant_problems(workload, first))
    expected = reference.get(workload, {}).get(str(seed))
    if expected is not None:
        problems.extend(
            f"reference: {p}" for p in reference_problems(expected, first)
        )
    return problems


# -- metrics -----------------------------------------------------------------

def fastest_simulation(reps):
    """CPU seconds of the simulation phase, segment by segment at its
    fastest: the seed fixes the run, so segment ``k`` (a fixed range of
    simulator events) is the same work in every repetition, and its
    fastest repetition is the one the host slowed least."""
    segments = zip(*(rep["segments_cpu_s"] for rep in reps))
    return sum(min(samples) for samples in segments)


def end_to_end(untraced):
    """The end-to-end metrics of an untraced pass.

    Times are the fastest the run observed, per set-up sample and per
    simulation segment: on a shared host the slower samples measure the
    neighbours, the fastest the program.
    """
    reps = untraced["reps"]
    outputs = reps[0]["outputs"]
    setup_s = min(untraced["setup_cpu_s"])
    sim_cpu_s = fastest_simulation(reps)
    return {
        "cpu_s": setup_s + sim_cpu_s,
        "setup_s": setup_s,
        "sim_s_per_cpu_s": reps[0]["sim_s"] / sim_cpu_s,
        "peak_rss_mb": reps[0]["peak_rss_bytes"] / 1e6,
        "served_ratio": outputs["served"] / outputs["offered"],
    }


def fastest(reps):
    """The repetition with the shortest wall time: the one the host
    slowed least, so its split is the program's own."""
    return min(reps, key=lambda rep: rep["wall_s"])


def per_layer(untraced, traced, warning_lines):
    """The per-layer metrics of the fastest traced repetition.

    All span figures come from that one repetition, so its self times
    plus ``trace.unattributed_s`` add up to ``trace.wall_s``; the
    overhead compares it with the fastest untraced repetition.
    """
    rep = fastest(traced["reps"])
    spans = rep["spans"]
    metrics = {}
    for span in SPANS:
        calls, _, self_s = spans.get(span, (0, 0.0, 0.0))
        metrics[f"{span}.calls"] = calls
        metrics[f"{span}.self_s"] = self_s
    solves = rep["solver"]["solves"]
    hits = rep["solver"]["cache_hits"]
    logical_gets = metrics["gridftp.rft.get_logical.calls"]
    outputs = rep["outputs"]
    untraced_wall = fastest(untraced["reps"])["wall_s"]
    metrics.update({
        "sim.events": rep["events"],
        "sim.queue_high_water": rep["queue_high_water"],
        "network.solver.solves": solves,
        "network.solver.cache_hits": hits,
        "network.solver.cache_hit_ratio": (
            hits / (solves + hits) if solves + hits else 0.0
        ),
        "gridftp.attempts_per_request": (
            metrics["gridftp.client.get.calls"] / logical_gets
            if logical_gets else 0.0
        ),
        "controlplane.door.offered": (
            outputs["offered"] if "shed" in outputs else 0
        ),
        "controlplane.door.completed": outputs.get("completed", 0),
        "controlplane.door.failed": outputs.get("failed", 0),
        "controlplane.door.shed": outputs.get("shed", 0),
        "controlplane.door.dedup": outputs.get("dedup", 0),
        "selection.decisions": outputs["selections"],
        "selection.oracle_matches": outputs.get("oracle_matches", 0),
        "logging.warning_lines": warning_lines,
        "trace.wall_s": rep["wall_s"],
        "trace.untraced_wall_s": untraced_wall,
        "trace.overhead_s": rep["wall_s"] - untraced_wall,
        "trace.unattributed_s": (
            rep["wall_s"] - sum(s[2] for s in spans.values())
        ),
    })
    return metrics


# -- reporting ---------------------------------------------------------------

def describe_run(workload, seed, untraced, warning_lines):
    reps = untraced["reps"]
    outputs = reps[0]["outputs"]
    walls = [rep["wall_s"] for rep in reps]
    env = untraced["environment"]
    print(f"workload {workload}  seed {seed}  repetitions {len(reps)}")
    print(f"  python {env['python']} on {env['platform']}, "
          f"{env['cpu_count']} CPUs")
    print("  wall_s per repetition: "
          + ", ".join(f"{w:.3f}" for w in walls))
    print("  cpu_s per repetition: "
          + ", ".join(f"{rep['cpu_s']:.3f}" for rep in reps))
    print(f"  events {reps[0]['events']}  sim_s {reps[0]['sim_s']:.1f}  "
          f"queue_high_water {reps[0]['queue_high_water']}")
    print(f"  served {outputs['served']} of {outputs['offered']} offered "
          f"requests (failed or outstanding: "
          f"{outputs['offered'] - outputs['served']})")
    if "oracle_matches" in outputs:
        print(f"  oracle agreement {outputs['oracle_matches']}"
              f"/{outputs['selections']}")
    print(f"  stderr lines per repetition {warning_lines}")


def describe_layers(rep):
    """The per-layer table of one traced repetition."""
    wall = rep["wall_s"]
    print(f"  {'span':38s} {'calls':>8s} {'incl_s':>8s} {'self_s':>8s} "
          f"{'self%':>6s}  moves")
    for span in SPANS:
        calls, incl_s, self_s = rep["spans"].get(span, (0, 0.0, 0.0))
        print(f"  {span:38s} {calls:8d} {incl_s:8.3f} {self_s:8.3f} "
              f"{100 * self_s / wall:6.1f}  {MOVES[span]}")


def report(correct, attempted, failed, metrics, units):
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no library sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    started = time.perf_counter()
    seconds = args.seconds / 2 if args.trace else args.seconds
    processes = min(PARALLEL, os.cpu_count() or 1)
    try:
        untraced, warning_lines = run_pass(
            args.workload, args.seed, seconds, False, BUDGET_S,
            processes=processes,
        )
        traced = None
        if args.trace:
            traced, _ = run_pass(
                args.workload, args.seed, seconds, True,
                BUDGET_S - (time.perf_counter() - started),
                processes=processes,
            )
    except PassFailed as error:
        print(f"FAILED: {error}", file=sys.stderr)
        return 1

    reps = untraced["reps"] + (traced["reps"] if traced else [])
    describe_run(args.workload, args.seed, untraced, warning_lines)

    reference = load_reference(REFERENCE)
    if args.write_reference:
        reference.setdefault(args.workload, {})[str(args.seed)] = \
            reps[0]["outputs"]
        REFERENCE.write_text(format_reference(reference))
        reference = load_reference(REFERENCE)
    problems = check(args.workload, args.seed, reps, reference)
    for problem in problems:
        print(f"  INCORRECT: {problem}")

    if args.trace:
        describe_layers(fastest(traced["reps"]))
        metrics = per_layer(untraced, traced, warning_lines)
        units = layer_units()
    else:
        metrics = end_to_end(untraced)
        units = END_TO_END_UNITS
    report(not problems, len(reps), len(reps) if problems else 0,
           metrics, units)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
