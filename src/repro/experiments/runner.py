"""Command-line runner: regenerate any or all exhibits.

Usage::

    python -m repro.experiments.runner                 # everything
    python -m repro.experiments.runner fig3 table1     # a subset
    python -m repro.experiments.runner --quick fig4    # small sizes
    python -m repro.experiments.runner --trace-out t.jsonl table1
    python -m repro.experiments.runner --list

``--trace-out`` turns on the instrumentation layer for every simulator
the experiments build and writes the merged metric/span/event stream as
JSON Lines; ``--obs-report`` prints the per-run instrumentation summary
instead of (or as well as) exporting it.

To see where an exhibit's time goes, run this module under stdlib
``cProfile`` (``python -m cProfile -s tottime -m
repro.experiments.runner --quick table1``); ``perfbench/run.py --trace
1`` gives the per-layer view of the benchmark workloads.
"""

import argparse
import contextlib
import sys

from repro.experiments.ablation_coalloc import run_ablation_coalloc
from repro.experiments.ablation_forecast import run_ablation_forecast
from repro.experiments.ablation_scale import run_ablation_scale
from repro.experiments.ablation_selectors import run_ablation_selectors
from repro.experiments.ablation_staleness import run_ablation_staleness
from repro.experiments.ablation_striped import run_ablation_striped
from repro.experiments.ablation_weights import run_ablation_weights
from repro.experiments.ablation_window import run_ablation_window
from repro.experiments.fig1 import run_fig1
from repro.experiments.fig2 import run_fig2
from repro.experiments.fig3 import run_fig3
from repro.experiments.fig4 import run_fig4
from repro.experiments.fig5 import run_fig5
from repro.experiments.fig_chaos import run_fig_chaos
from repro.experiments.fig_integrity import run_fig_integrity
from repro.experiments.fig_scale import run_fig_scale
from repro.experiments.table1 import run_table1

__all__ = ["EXPERIMENTS", "PRESET_EXPERIMENTS", "main", "run_experiment"]


def _fig1(quick, seed):
    return run_fig1(file_size_mb=16 if quick else 64, seed=seed)


def _fig2(quick, seed):
    return run_fig2(seed=seed)


def _fig3(quick, seed):
    sizes = (16, 32) if quick else (256, 512, 1024, 2048)
    return run_fig3(sizes_mb=sizes, seed=seed)


def _fig4(quick, seed):
    sizes = (16, 32) if quick else (256, 512, 1024, 2048)
    streams = (None, 1, 4) if quick else (None, 1, 2, 4, 8, 16)
    return run_fig4(sizes_mb=sizes, streams=streams, seed=seed)


def _table1(quick, seed, preset=None):
    return run_table1(
        file_size_mb=64 if quick else 1024, seed=seed, topology=preset
    )


def _fig5(quick, seed):
    duration = 120.0 if quick else 600.0
    return run_fig5(duration=duration, seed=seed)


def _abl_weights(quick, seed, preset=None):
    rounds = 3 if quick else 8
    size = 32 if quick else 128
    return run_ablation_weights(
        rounds=rounds, file_size_mb=size, seed=seed, topology=preset
    )


def _abl_selectors(quick, seed, preset=None):
    rounds = 3 if quick else 8
    size = 32 if quick else 128
    return run_ablation_selectors(
        rounds=rounds, file_size_mb=size, seed=seed, topology=preset
    )


def _abl_scale(quick, seed):
    counts = (3, 6) if quick else (3, 6, 12)
    rounds = 3 if quick else 6
    return run_ablation_scale(
        site_counts=counts, rounds=rounds, seed=seed
    )


def _abl_striped(quick, seed):
    return run_ablation_striped(
        file_size_mb=64 if quick else 256, seed=seed
    )


def _abl_window(quick, seed):
    return run_ablation_window(
        file_size_mb=32 if quick else 128, seed=seed
    )


def _abl_forecast(quick, seed):
    return run_ablation_forecast(
        duration=300.0 if quick else 1800.0, seed=seed
    )


def _abl_staleness(quick, seed):
    periods = (15.0, 180.0) if quick else None
    kwargs = {"rounds": 4 if quick else 10,
              "file_size_mb": 32 if quick else 96, "seed": seed}
    if periods is not None:
        kwargs["periods"] = periods
    return run_ablation_staleness(**kwargs)


def _fig_chaos(quick, seed):
    if quick:
        return run_fig_chaos(
            rounds=3, gap=30.0, file_size_mb=16, warmup=60.0,
            horizon=300.0, seed=seed,
        )
    return run_fig_chaos(seed=seed)


def _fig_integrity(quick, seed):
    if quick:
        return run_fig_integrity(
            rounds=3, gap=20.0, file_size_mb=32, warmup=60.0,
            horizon=300.0, repair_period=30.0, seed=seed,
        )
    return run_fig_integrity(seed=seed)


def _abl_coalloc(quick, seed):
    return run_ablation_coalloc(
        file_size_mb=64 if quick else 256,
        block_mb=8 if quick else 16, seed=seed,
    )


def _fig_scale(quick, seed):
    from repro.experiments.fig_scale import SIZES_FULL, SIZES_QUICK

    return run_fig_scale(
        sizes=SIZES_QUICK if quick else SIZES_FULL, seed=seed
    )


def _fig_frontdoor(quick, seed):
    from repro.experiments.fig_frontdoor import run_fig_frontdoor

    if quick:
        return run_fig_frontdoor(
            campaigns=("regional_brownout",), horizon=150.0,
            drain=60.0, n_files=10, warmup=30.0, seed=seed,
        )
    return run_fig_frontdoor(seed=seed)


#: Experiment id -> runner(quick, seed).
EXPERIMENTS = {
    "fig1": _fig1,
    "fig2": _fig2,
    "fig3": _fig3,
    "fig4": _fig4,
    "table1": _table1,
    "fig5": _fig5,
    "fig_chaos": _fig_chaos,
    "fig_integrity": _fig_integrity,
    "abl_weights": _abl_weights,
    "abl_selectors": _abl_selectors,
    "abl_scale": _abl_scale,
    "abl_striped": _abl_striped,
    "abl_window": _abl_window,
    "abl_forecast": _abl_forecast,
    "abl_coalloc": _abl_coalloc,
    "abl_staleness": _abl_staleness,
    "fig_scale": _fig_scale,
    "fig_frontdoor": _fig_frontdoor,
}

#: Experiments accepting a ``--preset`` topology override.
PRESET_EXPERIMENTS = frozenset({"table1", "abl_weights", "abl_selectors"})


def run_experiment(experiment_id, quick=False, seed=0, seeds=1,
                   preset=None):
    """Run one experiment by id; returns its ExperimentResult.

    With ``seeds > 1`` the experiment replicates over seeds
    ``seed .. seed+seeds-1`` and reports mean ± 95% CI per cell.
    ``preset`` runs the experiment on a named topology preset instead
    of the paper's testbed (:data:`PRESET_EXPERIMENTS` only).
    """
    if experiment_id not in EXPERIMENTS:
        raise KeyError(
            f"unknown experiment {experiment_id!r}; "
            f"choose from {sorted(EXPERIMENTS)}"
        )
    if preset is not None and experiment_id not in PRESET_EXPERIMENTS:
        raise ValueError(
            f"experiment {experiment_id!r} does not take a topology "
            f"preset; supported: {sorted(PRESET_EXPERIMENTS)}"
        )
    kwargs = {} if preset is None else {"preset": preset}
    if seeds <= 1:
        return EXPERIMENTS[experiment_id](quick, seed, **kwargs)
    from repro.experiments.replication import replicate

    def one_run(seed):
        return EXPERIMENTS[experiment_id](quick, seed, **kwargs)

    return replicate(one_run, range(seed, seed + seeds))


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Regenerate the paper's tables and figures."
    )
    parser.add_argument(
        "experiments", nargs="*",
        help="experiment ids (default: all)",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="smaller file sizes / fewer rounds for a fast smoke run",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--seeds", type=int, default=1,
        help="replicate over this many seeds and report mean ± 95%% CI",
    )
    parser.add_argument(
        "--preset", metavar="NAME",
        help="run on a named topology preset (paper3, fat_tree_campus, "
             "transcontinental_federation, degraded_backbone, "
             "scaled-<n>) — supported by "
             "table1 / abl_weights / abl_selectors",
    )
    parser.add_argument(
        "--list", action="store_true", help="list experiment ids"
    )
    parser.add_argument(
        "--output", metavar="FILE",
        help="also write the results to this text file",
    )
    parser.add_argument(
        "--trace-out", metavar="PATH",
        help="capture instrumentation from every run and export the "
             "merged metric/span/event stream as JSON Lines",
    )
    parser.add_argument(
        "--obs-report", action="store_true",
        help="print an instrumentation summary after the experiments",
    )
    args = parser.parse_args(argv)

    if args.list:
        for experiment_id in EXPERIMENTS:
            print(experiment_id)
        return 0

    requested = args.experiments or list(EXPERIMENTS)
    unknown = [e for e in requested if e not in EXPERIMENTS]
    if unknown:
        parser.error(f"unknown experiment(s): {', '.join(unknown)}")
    if args.preset:
        unsupported = [
            e for e in requested if e not in PRESET_EXPERIMENTS
        ]
        if unsupported:
            parser.error(
                f"--preset is not supported by: "
                f"{', '.join(unsupported)} "
                f"(supported: {', '.join(sorted(PRESET_EXPERIMENTS))})"
            )

    observing = args.trace_out or args.obs_report
    trace_handle = None
    if args.trace_out:
        # Open up front so a bad path fails before hours of experiments.
        try:
            trace_handle = open(args.trace_out, "w")
        except OSError as error:
            parser.error(f"cannot write --trace-out: {error}")
    if observing:
        from repro.obs import capture

        capturing = capture()
    else:
        capturing = contextlib.nullcontext()

    sections = []
    with capturing as collector:
        for experiment_id in requested:
            result = run_experiment(
                experiment_id, quick=args.quick, seed=args.seed,
                seeds=args.seeds, preset=args.preset,
            )
            text = result.to_text()
            print(text)
            print()
            sections.append(text)
    if args.output:
        with open(args.output, "w") as handle:
            handle.write("\n\n".join(sections) + "\n")
    if observing:
        if trace_handle is not None:
            with trace_handle:
                written = collector.export_jsonl(trace_handle)
            print(f"wrote {written} instrumentation records to "
                  f"{args.trace_out}")
        if args.obs_report:
            from repro.obs import render_report

            for index, session in enumerate(collector.sessions):
                print(render_report(session, title=f"session {index}"))
                print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
