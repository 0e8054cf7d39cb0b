"""The large-scale regime: 500 workers vs a model-based tuner (mini Figure 5).

Demonstrates the paper's headline scenario — evaluate orders of magnitude
more configurations than workers, in a small multiple of time(R) — on the
PTB LSTM surrogate with its heavy-tailed divergent region.  ASHA is compared
against the Vizier stand-in (batched GP-EI training every proposal to R).

Run:  python examples/large_scale_ptb.py
"""

from __future__ import annotations

import numpy as np

from repro import SimulatedCluster, build_scheduler
from repro.analysis import render_table, trace_incumbent
from repro.objectives import ptb_lstm

NUM_WORKERS = 500
HORIZON = 4.0  # multiples of time(R)


def run(name, make_scheduler):
    objective = ptb_lstm.make_objective()
    scheduler = make_scheduler(objective)
    cluster = SimulatedCluster(NUM_WORKERS, seed=0)
    result = cluster.run(scheduler, objective, time_limit=HORIZON * ptb_lstm.R)
    trace = trace_incumbent(result, scheduler)
    configs = len({m.trial_id for m in result.measurements})
    print(
        f"{name:8s} configs evaluated: {configs:6d}   "
        f"fully trained: {len(result.completions):4d}   "
        f"best perplexity: {trace.final:.1f}"
    )
    return trace


def main() -> None:
    print(f"{NUM_WORKERS} workers, budget = {HORIZON:.0f} x time(R)\n")
    traces = {}
    geometry = {"min_resource": ptb_lstm.R / 64, "max_resource": ptb_lstm.R, "eta": 4}
    traces["ASHA"] = run(
        "ASHA",
        lambda obj: build_scheduler("asha", obj.space, np.random.default_rng(0), **geometry),
    )
    traces["Vizier"] = run(
        "Vizier",
        lambda obj: build_scheduler(
            "vizier",
            obj.space,
            np.random.default_rng(0),
            kwargs={"loss_cap": 1000.0, "refit_every": 25, "max_fit_points": 250},
            **geometry,
        ),
    )

    print()
    checkpoints = [0.5, 1.0, 2.0, 4.0]
    rows = []
    for mult in checkpoints:
        t = mult * ptb_lstm.R
        rows.append(
            [f"{mult:.1f} x time(R)"]
            + [
                round(traces[m].value_at(t), 1) if np.isfinite(traces[m].value_at(t)) else "-"
                for m in ("ASHA", "Vizier")
            ]
        )
    print(render_table(["elapsed", "ASHA best ppl", "Vizier best ppl"], rows))
    print(
        "\nASHA exploits early stopping: it has a strong incumbent before "
        "Vizier finishes its first full training runs."
    )


if __name__ == "__main__":
    main()
