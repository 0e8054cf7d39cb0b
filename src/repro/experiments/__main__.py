"""Command-line access to the reproduction registry.

``python -m repro.experiments``            list every paper artefact
``python -m repro.experiments run fig1``   run one driver at quick scale

The ``run`` subcommand uses reduced trial counts/horizons so it answers in
seconds-to-minutes; the benches under ``benchmarks/`` run the full scale.
"""

from __future__ import annotations

import argparse
from typing import Any

from ..analysis.tables import render_series, render_table
from . import figures
from .specs import EXPERIMENTS, get_spec


def _print_curves(curves: dict[str, Any]) -> None:
    grid = list(next(iter(curves.values())).grid)
    series = {name: list(curve.mean.round(4)) for name, curve in curves.items()}
    print(render_series(grid, series, time_label="sim time"))
    print()
    print(
        render_table(
            ["method", "final mean"],
            [[name, round(float(c.final_mean), 4)] for name, c in curves.items()],
        )
    )


_QUICK_RUNNERS = {
    "fig1": lambda **kw: print(
        render_table(
            ["bracket", "rung", "n_i", "r_i", "total"],
            [
                [r["bracket"], r["rung"], r["n_i"], r["r_i"], r["total"]]
                for r in figures.figure1_rows()
            ],
        )
    ),
    "fig2": lambda **kw: print(
        render_table(
            ["scheduler", "jobs (config @ rung)"],
            [[k, " ".join(f"{c}@{r}" for c, r in v)] for k, v in figures.figure2_traces().items()],
        )
    ),
    "fig3": lambda **kw: _print_curves(figures.figure3(num_trials=2, horizon_multiple=20, **kw)),
    "fig4": lambda **kw: _print_curves(figures.figure4(num_trials=2, **kw)),
    "fig5": lambda **kw: _print_curves(figures.figure5(num_trials=1, **kw)),
    "fig6": lambda **kw: _print_curves(figures.figure6(num_trials=2, **kw)),
    "fig7": lambda **kw: print(
        render_table(
            ["method", "std", "drop p", "mean done", "std"],
            [
                [
                    r["method"],
                    r["train_std"],
                    r["drop_prob"],
                    round(r["mean_completed"], 2),
                    round(r["std_completed"], 2),
                ]
                for r in figures.figure7(num_sims=4)
            ],
        )
    ),
    "fig8": lambda **kw: print(
        render_table(
            ["method", "std", "drop p", "mean first R", "std"],
            [
                [
                    r["method"],
                    r["train_std"],
                    r["drop_prob"],
                    round(r["mean_first_completion"], 1),
                    round(r["std_first_completion"], 1),
                ]
                for r in figures.figure8(num_sims=4)
            ],
        )
    ),
    "fig9": lambda **kw: _print_curves(figures.figure9(num_trials=2)),
    "claim-wallclock": lambda **kw: print(figures.claim_wallclock()),
    "claim-mispromotion": lambda **kw: print(
        render_table(
            ["n", "mean", "sqrt(n)", "ratio"],
            [
                [s.n, round(s.mean, 2), round(s.sqrt_n, 1), round(s.ratio, 3)]
                for s in figures.claim_mispromotion(repeats=10)
            ],
        )
    ),
}

#: Experiments whose quick runners can export per-(method, seed) event files.
_TELEMETRY_CAPABLE = frozenset({"fig3", "fig4", "fig5", "fig6"})


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(prog="python -m repro.experiments")
    sub = parser.add_subparsers(dest="command")
    sub.add_parser("list", help="list the reproduction registry (default)")
    run = sub.add_parser("run", help="run one experiment at quick scale")
    run.add_argument("experiment_id", choices=sorted(_QUICK_RUNNERS))
    run.add_argument(
        "--telemetry-out",
        metavar="DIR",
        default=None,
        help="write one telemetry JSONL file per (method, seed) into DIR "
        "(curve experiments only); rebuild traces with "
        "'python -m repro.telemetry'",
    )
    args = parser.parse_args(argv)

    if args.command == "run":
        spec = get_spec(args.experiment_id) if args.experiment_id in {
            s.experiment_id for s in EXPERIMENTS
        } else None
        if spec is not None:
            print(f"{spec.paper_artifact}: {spec.description}\n")
        kwargs = {}
        if args.telemetry_out is not None:
            if args.experiment_id in _TELEMETRY_CAPABLE:
                kwargs["telemetry_out"] = args.telemetry_out
            else:
                print(
                    f"note: --telemetry-out is ignored for {args.experiment_id} "
                    f"(supported: {', '.join(sorted(_TELEMETRY_CAPABLE))})"
                )
        _QUICK_RUNNERS[args.experiment_id](**kwargs)
        return

    rows = [[s.experiment_id, s.paper_artifact, s.workload, s.bench] for s in EXPERIMENTS]
    print(
        render_table(
            ["id", "paper artefact", "workload", "bench"],
            rows,
            title="Reproduction registry (drivers live in repro.experiments.figures)",
        )
    )


if __name__ == "__main__":
    main()
