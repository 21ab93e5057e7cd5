"""Run one workload in this process and print its measurements as JSON.

``run.py`` starts this script once per pass, so each pass has its own
peak RSS and its own stderr.  Usage::

    python3 perfbench/worker.py --workload NAME --seed N --seconds S \
        [--traced] [--min-reps R] [--min-setups K] [--setup-seconds T]

Repetitions (set-up + simulation, each on a fresh testbed from the same
seed) run while another one is expected to end within ``--seconds``,
at least ``--min-reps``.  Set-up is then repeated alone until there are
``--min-setups`` set-up samples and ``--setup-seconds`` spent on them.
The single JSON line on stdout holds every repetition's timings and
outputs; ``run.py`` checks and summarises them.
"""

import argparse
import gc
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MAX_SETUPS = 20


def _import_library():
    """Put the checkout's ``src`` first on the path; fail without it."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"no library sources under {SRC}")
    sys.path.insert(0, str(SRC))


class SolverLog:
    """Collects every IncrementalMaxMinSolver built inside the block, so
    the traced pass can read the solvers' public counters."""

    def __init__(self, solver_class):
        self.solver_class = solver_class
        self.solvers = []

    def __enter__(self):
        original = self._original = self.solver_class.__init__
        solvers = self.solvers

        def init(solver, *args, **kwargs):
            original(solver, *args, **kwargs)
            solvers.append(solver)

        self.solver_class.__init__ = init
        return self

    def __exit__(self, exc_type, exc_value, traceback):
        self.solver_class.__init__ = self._original
        return False

    def counters(self):
        return {
            "solves": sum(s.solves for s in self.solvers),
            "cache_hits": sum(s.cache_hits for s in self.solvers),
        }


class EventClock:
    """A simulator step hook noting the CPU clock every ``every`` events.

    The seed fixes the run, so event ``k`` is the same work in every
    repetition; comparing repetitions segment by segment separates the
    program's cost from the host's changing speed.
    """

    def __init__(self, every):
        self.every = every
        self.count = 0
        self.marks = []

    def __call__(self, sim, event):
        self.count += 1
        if self.count % self.every == 0:
            self.marks.append(time.process_time())


def run_repetition(workload, seed):
    """One set-up + simulation; times both phases with both clocks.

    ``peak_rss_bytes`` is the process's high-water mark when the
    repetition ends; only the first repetition's is free of the
    allocator fragmentation earlier repetitions leave behind.
    """
    from repro.obs.perf.bench import peak_rss_bytes

    gc.collect()
    wall0, cpu0 = time.perf_counter(), time.process_time()
    prepared = workload.setup(seed)
    cpu1 = time.process_time()
    sim = prepared.sim
    events_in_setup = sim.events_processed
    sim_start = sim.now
    clock = EventClock(workload.events_per_segment)
    sim.add_step_hook(clock)
    outputs = prepared.simulate()
    wall2, cpu2 = time.perf_counter(), time.process_time()
    sim.remove_step_hook(clock)
    marks = [cpu1] + clock.marks + [cpu2]
    return {
        "setup_cpu_s": cpu1 - cpu0,
        "cpu_s": cpu2 - cpu0,
        "wall_s": wall2 - wall0,
        "sim_s": sim.now - sim_start,
        "segments_cpu_s": [b - a for a, b in zip(marks, marks[1:])],
        "events_in_setup": events_in_setup,
        "events": sim.events_processed,
        "queue_high_water": sim.queue_high_water,
        "peak_rss_bytes": peak_rss_bytes(),
        "outputs": outputs,
    }


def traced_repetition(workload, seed):
    """A repetition with every layer boundary wrapped in a span."""
    from layers import targets
    from repro.network.solver import IncrementalMaxMinSolver
    from tracing import Tracer

    tracer = Tracer()
    with SolverLog(IncrementalMaxMinSolver) as solvers:
        with tracer.install(targets()):
            rep = run_repetition(workload, seed)
    rep["spans"] = tracer.totals()
    rep["solver"] = solvers.counters()
    return rep


def time_setup(workload, seed):
    """CPU seconds of one set-up alone."""
    gc.collect()
    cpu0 = time.process_time()
    workload.setup(seed)
    return time.process_time() - cpu0


def measure(workload, seed, seconds, traced=False, min_reps=1,
            min_setups=1, setup_seconds=0.0):
    """At least ``min_reps`` repetitions, more while another one is
    expected to end within ``seconds``; then extra set-ups until there
    are ``min_setups`` samples and ``setup_seconds`` spent on them (at
    most ``MAX_SETUPS``)."""
    repeat = traced_repetition if traced else run_repetition
    reps = []
    started = time.perf_counter()
    while True:
        reps.append(repeat(workload, seed))
        elapsed = time.perf_counter() - started
        if len(reps) >= min_reps and \
                elapsed * (len(reps) + 1) / len(reps) > seconds:
            break
    setups = [rep["setup_cpu_s"] for rep in reps]
    while len(setups) < min_setups or (
            sum(setups) < setup_seconds and len(setups) < MAX_SETUPS):
        setups.append(time_setup(workload, seed))
    return {"reps": reps, "setup_cpu_s": setups}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--min-reps", type=int, default=1)
    parser.add_argument("--min-setups", type=int, default=1)
    parser.add_argument("--setup-seconds", type=float, default=0.0)
    args = parser.parse_args(argv)
    _import_library()
    from repro.obs.perf.bench import environment_fingerprint
    from workloads import WORKLOADS

    result = measure(
        WORKLOADS[args.workload], args.seed, args.seconds,
        traced=args.traced, min_reps=args.min_reps,
        min_setups=args.min_setups, setup_seconds=args.setup_seconds,
    )
    result["environment"] = environment_fingerprint()
    print(json.dumps(result))


if __name__ == "__main__":
    main()
