"""Command-line entry point: regenerate the paper's tables and figures.

Examples::

    python -m repro.experiments table1
    python -m repro.experiments fig8 --scaling fixed
    python -m repro.experiments fig9 --metric comm --scaling scaled --app SAT
    python -m repro.experiments all --fidelity fast
"""

from __future__ import annotations

import argparse
import sys

from repro.experiments.grid import APPS, SCALINGS, ExperimentGrid

FIGURES = {
    ("fig8", "fixed"): ("Figure 8 (left): execution time", "time"),
    ("fig8", "scaled"): ("Figure 8 (right): execution time", "time"),
    ("fig9-comm", "fixed"): ("Figure 9(a): communication volume per processor", "comm"),
    ("fig9-comm", "scaled"): ("Figure 9(b): communication volume per processor", "comm"),
    ("fig9-comp", "fixed"): ("Figure 9(c): computation time", "comp"),
    ("fig9-comp", "scaled"): ("Figure 9(d): computation time", "comp"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the evaluation tables/figures of the ADR paper.",
    )
    parser.add_argument(
        "what",
        choices=["table1", "fig8", "fig9", "phases", "auto", "all"],
        help="which paper artifact to regenerate (phases: per-phase "
        "time breakdown behind the fig8 totals; auto: calibrated "
        "cost-model strategy selection vs the simulated grid)",
    )
    parser.add_argument("--app", choices=list(APPS), help="restrict to one application")
    parser.add_argument(
        "--scaling", choices=list(SCALINGS), help="fixed or scaled input (figures)"
    )
    parser.add_argument(
        "--metric",
        choices=["comm", "comp"],
        default=None,
        help="fig9 metric: comm (volume) or comp (computation time)",
    )
    parser.add_argument(
        "--fidelity",
        choices=["full", "fast"],
        default="full",
        help="full = paper-size populations (default); fast = reduced smoke grid",
    )
    parser.add_argument(
        "--procs", type=int, default=None,
        help="processor count for the phases view (default: smallest)",
    )
    parser.add_argument("--seed", type=int, default=20260707)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    grid = ExperimentGrid(fidelity=args.fidelity, seed=args.seed)
    apps = [args.app] if args.app else list(APPS)
    scalings = [args.scaling] if args.scaling else list(SCALINGS)

    def emit_figure(key_prefix: str, metric: str) -> None:
        for scaling in scalings:
            title, m = FIGURES[(key_prefix, scaling)]
            for app in apps:
                print(grid.table(title, app, scaling, m if metric is None else metric))
                print()

    if args.what in ("table1", "all"):
        for app in apps:
            print(grid.table1(app))
            print()
    if args.what in ("fig8", "all"):
        emit_figure("fig8", None)
    if args.what == "phases":
        procs = args.procs if args.procs else grid.procs[0]
        for scaling in scalings:
            for app in apps:
                print(grid.phase_table(app, scaling, procs))
                print()
    if args.what in ("auto", "all"):
        for scaling in scalings:
            for app in apps:
                print(grid.auto_table(app, scaling))
                print()
    if args.what in ("fig9", "all"):
        metrics = [args.metric] if args.metric else ["comm", "comp"]
        for m in metrics:
            for scaling in scalings:
                title, _ = FIGURES[(f"fig9-{m}", scaling)]
                for app in apps:
                    print(grid.table(title, app, scaling, m))
                    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
