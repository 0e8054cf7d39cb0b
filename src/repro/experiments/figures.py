"""Reproduction drivers: one entry point per paper figure / claim.

Each ``figure*`` function runs the corresponding experiment end-to-end on
the simulated cluster and returns structured data (rows or aggregate
curves); the scripts under ``benchmarks/`` print them.  Defaults are scaled
to finish in CI-friendly time — the paper's exact trial counts and horizons
are noted per function and reachable through the parameters.

Time units: the simulator's clock advances by one unit per resource unit of
training at cost multiplier 1, so "time(R)" equals ``R`` for an average
configuration.  The paper's wall-clock axes (minutes) map linearly onto
these units; the *shape* comparisons (who wins, crossover ordering, rough
factors) are scale-free.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from ..analysis.mispromotion import MispromotionStudy, mispromotion_curve
from ..analysis.results import AggregateCurve, RunRecord, aggregate
from ..analysis.tracker import IncumbentTrace, trace_incumbent
from ..backend.simulation import SimulatedCluster
from ..core import ASHA, Fabolas, Hyperband, RandomSearch, SynchronousSHA
from ..core.bracket import Bracket, sha_rung_schedule
from ..objectives import (
    cifar_convnet,
    cifar_smallcnn,
    ptb_awd_lstm,
    ptb_lstm,
    sim_workload,
    svhn_smallcnn,
    svm,
)
from ..objectives.base import Objective
from ..objectives.surrogate import SurrogateObjective
from ..searchers import FunctionSearcher
from .methods import MethodSettings, method_factory, standard_methods
from .parallel import parallel_map
from .runner import aggregate_methods, run_methods
from .toys import FIGURE2_QUALITIES, scripted_sampler, toy_objective

__all__ = [
    "figure1_rows",
    "figure2_traces",
    "figure3",
    "figure4",
    "figure5",
    "figure6",
    "figure7",
    "figure8",
    "figure9",
    "claim_wallclock",
    "claim_mispromotion",
    "SEQUENTIAL_BENCHMARKS",
]


# --------------------------------------------------------------------------
# Figure 1: the SHA promotion-scheme table.
# --------------------------------------------------------------------------


def figure1_rows(
    n: int = 9, min_resource: float = 1.0, max_resource: float = 9.0, eta: int = 3
) -> list[dict]:
    """All rows of Figure 1 (right): every bracket's rung schedule."""
    probe = Bracket(min_resource, max_resource, eta, 0)
    rows = []
    for s in range(probe.s_max + 1):
        for row in sha_rung_schedule(n, min_resource, max_resource, eta, s):
            rows.append({"bracket": s, **row})
    return rows


# --------------------------------------------------------------------------
# Figure 2: chronological job traces of SHA vs ASHA on the toy bracket.
# --------------------------------------------------------------------------


def figure2_traces() -> dict[str, list[tuple[int, int]]]:
    """Job sequences (config label, rung) for SHA and ASHA, Figure 2's toy.

    One worker, ``n = 9, r = 1, R = 9, eta = 3``, losses scripted so that
    configurations 1, 6, 8 (1-indexed) are promoted to rung 1 and
    configuration 8 to rung 2.  Labels are 1-indexed like the figure.
    """
    objective = toy_objective()
    traces: dict[str, list[tuple[int, int]]] = {}
    for name in ("SHA", "ASHA"):
        rng = np.random.default_rng(0)
        if name == "SHA":
            scheduler = SynchronousSHA(
                objective.space,
                rng,
                n=9,
                min_resource=1.0,
                max_resource=9.0,
                eta=3,
                searcher=FunctionSearcher(scripted_sampler(FIGURE2_QUALITIES)),
                from_checkpoint=False,
            )
        else:
            scheduler = ASHA(
                objective.space,
                rng,
                min_resource=1.0,
                max_resource=9.0,
                eta=3,
                max_trials=9,
                searcher=FunctionSearcher(scripted_sampler(FIGURE2_QUALITIES)),
                from_checkpoint=False,
            )
        jobs: list[tuple[int, int]] = []
        cluster = SimulatedCluster(1, seed=0)
        original_next = scheduler.next_job

        def recording_next(original=original_next, jobs=jobs):
            job = original()
            if job is not None:
                jobs.append((job.trial_id + 1, job.rung))
            return job

        scheduler.next_job = recording_next  # type: ignore[method-assign]
        cluster.run(scheduler, objective, time_limit=1e9)
        traces[name] = jobs
    return traces


# --------------------------------------------------------------------------
# Figures 3/4: the two CIFAR-10 benchmarks, sequential and 25 workers.
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class BenchmarkSpec:
    """One tuning workload plus the paper's method settings for it."""

    name: str
    make_objective: Callable[[int], Objective]
    settings: MethodSettings
    #: Loss level the text calls "a good configuration".
    good_loss: float


def _cifar_settings(frozen: frozenset[str], grow: bool) -> MethodSettings:
    r = cifar_convnet.R
    return MethodSettings(
        eta=4,
        min_resource=r / 256.0,
        max_resource=r,
        n=256,
        pbt_interval=1000.0,
        pbt_population=25,
        pbt_frozen=frozen,
        grow_brackets=grow,
    )


def sequential_benchmarks(grow_brackets: bool = False) -> dict[str, BenchmarkSpec]:
    """The Section 4.1/4.2 benchmark pair."""
    return {
        "cifar_convnet": BenchmarkSpec(
            name="CIFAR10 small cuda-convnet",
            make_objective=lambda seed: cifar_convnet.make_objective(seed_salt=seed),
            settings=_cifar_settings(frozenset(), grow_brackets),
            good_loss=0.21,
        ),
        "cifar_smallcnn": BenchmarkSpec(
            name="CIFAR10 small CNN architecture",
            make_objective=lambda seed: cifar_smallcnn.make_objective(seed_salt=seed),
            settings=_cifar_settings(cifar_smallcnn.ARCHITECTURE_KEYS, grow_brackets),
            good_loss=0.23,
        ),
    }


SEQUENTIAL_BENCHMARKS = tuple(sequential_benchmarks())


def figure3(
    benchmark: str = "cifar_convnet",
    *,
    num_trials: int = 5,
    horizon_multiple: float = 40.0,
    methods: Sequence[str] | None = None,
    grid_points: int = 48,
    n_jobs: int | None = None,
    telemetry_out: str | None = None,
) -> dict[str, AggregateCurve]:
    """Sequential experiments (1 worker), Figure 3.

    Paper settings: 10 trials, ~ 2500 minutes (~ 60 x time(R)); defaults here
    are 5 trials and 40 x time(R) for bench runtime, same ordering.
    ``telemetry_out`` writes one JSONL event file per (method, seed) into
    that directory for offline trace reconstruction (see ``docs/tracing.md``).
    """
    spec = sequential_benchmarks()[benchmark]
    time_limit = horizon_multiple * spec.settings.max_resource
    factories = standard_methods(spec.settings, include=methods)
    records = run_methods(
        factories,
        spec.make_objective,
        num_workers=1,
        time_limit=time_limit,
        seeds=range(num_trials),
        n_jobs=n_jobs,
        telemetry_out=telemetry_out,
    )
    return aggregate_methods(
        records, time_limit=time_limit, grid_points=grid_points, band="quartile"
    )


def figure4(
    benchmark: str = "cifar_convnet",
    *,
    num_trials: int = 5,
    num_workers: int = 25,
    horizon_multiple: float = 3.75,
    methods: Sequence[str] | None = ("ASHA", "PBT", "SHA", "BOHB"),
    straggler_std: float = 0.25,
    grid_points: int = 48,
    n_jobs: int | None = None,
    telemetry_out: str | None = None,
) -> dict[str, AggregateCurve]:
    """Limited-scale distributed experiments (25 workers), Figure 4.

    The 150-minute wall-clock budget corresponds to ~ 3.75 x time(R) on the
    paper's hardware.  Synchronous methods grow extra brackets when blocked,
    per Section 3.1's description of parallel SHA.
    """
    spec = sequential_benchmarks(grow_brackets=True)[benchmark]
    time_limit = horizon_multiple * spec.settings.max_resource
    factories = standard_methods(spec.settings, include=methods)
    records = run_methods(
        factories,
        spec.make_objective,
        num_workers=num_workers,
        time_limit=time_limit,
        seeds=range(num_trials),
        straggler_std=straggler_std,
        n_jobs=n_jobs,
        telemetry_out=telemetry_out,
    )
    return aggregate_methods(records, time_limit=time_limit, grid_points=grid_points)


# --------------------------------------------------------------------------
# Figure 5: ASHA vs async Hyperband vs Vizier, 500 workers, PTB LSTM.
# --------------------------------------------------------------------------


def figure5(
    *,
    num_trials: int = 3,
    num_workers: int = 500,
    horizon_multiple: float = 6.0,
    grid_points: int = 48,
    n_jobs: int | None = None,
    telemetry_out: str | None = None,
) -> dict[str, AggregateCurve]:
    """Large-scale benchmark, Figure 5 (paper: 5 trials, 500 workers).

    Section 4.3 settings: ``eta = 4, r = R/64, s = 0``; async Hyperband
    loops brackets ``s = 0..3``; Vizier proposes full-``R`` evaluations
    (perplexities capped at 1000, the paper's mitigation attempt).
    """
    r_max = ptb_lstm.R
    time_limit = horizon_multiple * r_max

    geometry = {"min_resource": r_max / 64.0, "max_resource": r_max, "eta": 4}
    vizier = {"loss_cap": 1000.0, "refit_every": 25, "max_fit_points": 250}
    factories = {
        "ASHA": method_factory("asha", **geometry),
        "Hyperband (Loop Brackets)": method_factory(
            "async_hyperband", kwargs={"brackets": 4}, **geometry
        ),
        "Vizier": method_factory("vizier", kwargs=vizier, **geometry),
    }
    records = run_methods(
        factories,
        lambda seed: ptb_lstm.make_objective(seed_salt=seed),
        num_workers=num_workers,
        time_limit=time_limit,
        seeds=range(num_trials),
        n_jobs=n_jobs,
        telemetry_out=telemetry_out,
    )
    return aggregate_methods(records, time_limit=time_limit, grid_points=grid_points)


# --------------------------------------------------------------------------
# Figure 6: ASHA vs PBT on the AWD-LSTM task, 16 workers.
# --------------------------------------------------------------------------


def figure6(
    *,
    num_trials: int = 5,
    num_workers: int = 16,
    horizon_multiple: float = 5.0,
    grid_points: int = 48,
    n_jobs: int | None = None,
    telemetry_out: str | None = None,
) -> dict[str, AggregateCurve]:
    """Modern LSTM benchmark, Figure 6.

    Section 4.3.1 settings: ASHA with ``eta = 4, r = 1, R = 256``; PBT with
    population 20 and explore/exploit every 8 epochs.
    """
    r_max = ptb_awd_lstm.R
    time_limit = horizon_multiple * r_max

    geometry = {"min_resource": 1.0, "max_resource": r_max, "eta": 4}
    factories = {
        "PBT": method_factory("pbt", kwargs={"interval": 8.0, "population_size": 20}, **geometry),
        "ASHA": method_factory("asha", **geometry),
    }
    records = run_methods(
        factories,
        lambda seed: ptb_awd_lstm.make_objective(seed_salt=seed),
        num_workers=num_workers,
        time_limit=time_limit,
        seeds=range(num_trials),
        n_jobs=n_jobs,
        telemetry_out=telemetry_out,
    )
    return aggregate_methods(records, time_limit=time_limit, grid_points=grid_points)


# --------------------------------------------------------------------------
# Figures 7/8: straggler and dropped-job robustness (Appendix A.1).
# --------------------------------------------------------------------------


#: SHA and ASHA with the Appendix A.1 settings (eta=4, r=1, R=256, n=256).
_ROBUSTNESS_GEOMETRY = {"min_resource": 1.0, "max_resource": 256.0, "eta": 4}
_ROBUSTNESS_METHODS = {
    "SHA": method_factory(
        "sha", kwargs={"n": 256, "grow_brackets": True}, **_ROBUSTNESS_GEOMETRY
    ),
    "ASHA": method_factory("asha", **_ROBUSTNESS_GEOMETRY),
}


@dataclass(frozen=True)
class _RobustnessTask:
    """One simulation of the Appendix A.1 sweep — picklable for fan-out."""

    name: str
    std: float
    drop_prob: float
    sim: int
    num_workers: int
    time_budget: float
    seed_multiplier: int
    stop_on_first_completion: bool


def _run_robustness_task(task: _RobustnessTask) -> tuple[int, float | None]:
    """(completion count, first completion time) of one robustness sim."""
    objective = sim_workload.make_objective(seed_salt=task.sim)
    rng = np.random.default_rng(task.sim)
    scheduler = _ROBUSTNESS_METHODS[task.name](objective, rng)
    cluster = SimulatedCluster(
        task.num_workers,
        straggler_std=task.std,
        drop_probability=task.drop_prob,
        seed=task.seed_multiplier * task.sim + (0 if task.name == "SHA" else 1),
    )
    result = cluster.run(
        scheduler,
        objective,
        time_limit=task.time_budget,
        stop_on_first_completion=task.stop_on_first_completion,
    )
    return result.num_completions(), result.first_completion_time()


def figure7(
    *,
    straggler_stds: Sequence[float] = (0.1, 0.24, 0.56, 1.33),
    drop_probs: Sequence[float] = (0.0, 0.002, 0.005, 0.01),
    num_sims: int = 10,
    num_workers: int = 10,
    time_budget: float = 2000.0,
    n_jobs: int | None = None,
) -> list[dict]:
    """Configurations trained to R within the budget (paper: 25 sims).

    The paper does not state the worker count; 10 workers reproduces its
    y-axis scale (~ 16 completions for ASHA at low drop rates).  Returns one
    row per (method, std, drop probability) with the mean/std completion
    count.
    """
    tasks = [
        _RobustnessTask(name, std, p, sim, num_workers, time_budget, 7919, False)
        for std in straggler_stds
        for p in drop_probs
        for sim in range(num_sims)
        for name in ("SHA", "ASHA")
    ]
    outcomes = parallel_map(_run_robustness_task, tasks, n_jobs)
    rows = []
    for std in straggler_stds:
        for p in drop_probs:
            for name in ("SHA", "ASHA"):
                counts = [
                    completions
                    for task, (completions, _) in zip(tasks, outcomes)
                    if task.name == name and task.std == std and task.drop_prob == p
                ]
                rows.append(
                    {
                        "method": name,
                        "train_std": std,
                        "drop_prob": p,
                        "mean_completed": float(np.mean(counts)),
                        "std_completed": float(np.std(counts)),
                    }
                )
    return rows


def figure8(
    *,
    straggler_stds: Sequence[float] = (0.0, 0.33, 0.67, 1.0, 1.33, 1.67),
    drop_probs: Sequence[float] = (0.0, 0.001, 0.002, 0.003),
    num_sims: int = 10,
    num_workers: int = 10,
    time_budget: float = 2000.0,
    n_jobs: int | None = None,
) -> list[dict]:
    """Time until the first configuration trained to R (paper: 25 sims).

    Runs that never complete a configuration within the budget contribute
    the budget itself (a right-censored observation, as in the figure's
    capped y-axis).
    """
    tasks = [
        _RobustnessTask(name, std, p, sim, num_workers, time_budget, 104729, True)
        for std in straggler_stds
        for p in drop_probs
        for sim in range(num_sims)
        for name in ("SHA", "ASHA")
    ]
    outcomes = parallel_map(_run_robustness_task, tasks, n_jobs)
    rows = []
    for std in straggler_stds:
        for p in drop_probs:
            for name in ("SHA", "ASHA"):
                times = [
                    first if first is not None else time_budget
                    for task, (_, first) in zip(tasks, outcomes)
                    if task.name == name and task.std == std and task.drop_prob == p
                ]
                rows.append(
                    {
                        "method": name,
                        "train_std": std,
                        "drop_prob": p,
                        "mean_first_completion": float(np.mean(times)),
                        "std_first_completion": float(np.std(times)),
                    }
                )
    return rows


# --------------------------------------------------------------------------
# Figure 9: Hyperband (two accountings) vs Fabolas vs Random (Appendix A.2).
# --------------------------------------------------------------------------

FIGURE9_BENCHMARKS = ("svm_vehicle", "svm_mnist", "cifar_convnet", "svhn_smallcnn")


def _figure9_objective(benchmark: str, seed: int) -> Objective:
    if benchmark == "svm_vehicle":
        return svm.make_objective("vehicle", seed=seed, max_train=2048, num_val=768)
    if benchmark == "svm_mnist":
        return svm.make_objective("mnist", seed=seed, max_train=2048, num_val=768)
    if benchmark == "cifar_convnet":
        return cifar_convnet.make_objective(seed_salt=seed)
    if benchmark == "svhn_smallcnn":
        return svhn_smallcnn.make_objective(seed_salt=seed)
    raise KeyError(f"unknown figure-9 benchmark {benchmark!r}")


@dataclass(frozen=True)
class _Figure9Task:
    """One seed of the Appendix A.2 comparison — picklable for fan-out."""

    benchmark: str
    seed: int
    r_max: float
    time_limit: float


def _run_figure9_seed(task: _Figure9Task) -> dict[str, RunRecord]:
    """All four method records of one figure-9 seed."""
    seed = task.seed
    r_max = task.r_max
    time_limit = task.time_limit
    objective = _figure9_objective(task.benchmark, seed)
    if isinstance(objective, SurrogateObjective):
        evaluate = objective.clean_loss_at
    else:
        def evaluate(config, resource):
            return objective.evaluate(config, r_max)
    out: dict[str, RunRecord] = {}
    # --- Hyperband, one run, two accountings.
    rng = np.random.default_rng(seed)
    hb = Hyperband(
        objective.space, rng, min_resource=r_max / 256.0, max_resource=r_max, eta=4
    )
    cluster = SimulatedCluster(1, seed=seed + 10_000)
    backend = cluster.run(hb, objective, time_limit=time_limit)
    out["Hyperband (by rung)"] = RunRecord(
        "Hyperband (by rung)",
        seed,
        trace_incumbent(backend, hb, accounting="by_rung", evaluate=evaluate),
    )
    out["Hyperband (by bracket)"] = RunRecord(
        "Hyperband (by bracket)",
        seed,
        trace_incumbent(backend, hb, accounting="by_bracket", evaluate=evaluate),
    )
    # --- Random search.
    rng = np.random.default_rng(seed)
    rs = RandomSearch(objective.space, rng, max_resource=r_max)
    backend = SimulatedCluster(1, seed=seed + 20_000).run(
        rs, objective, time_limit=time_limit
    )
    out["Random"] = RunRecord(
        "Random",
        seed,
        trace_incumbent(backend, rs, accounting="by_rung", evaluate=evaluate),
    )
    # --- Fabolas: incumbent history -> offline validation.
    rng = np.random.default_rng(seed)
    fab = Fabolas(objective.space, rng, max_resource=r_max, max_trials=120)
    backend = SimulatedCluster(1, seed=seed + 30_000).run(
        fab, objective, time_limit=time_limit
    )
    trace = IncumbentTrace()
    best_so_far = float("inf")
    for report_index, config in fab.incumbent_history:
        time = backend.measurements[report_index - 1].time
        value = evaluate(config, r_max)
        best_so_far = min(best_so_far, value)
        trace.append(time, best_so_far, -1)
    out["Fabolas"] = RunRecord("Fabolas", seed, trace)
    return out


def figure9(
    benchmark: str = "svm_vehicle",
    *,
    num_trials: int = 3,
    horizon_multiple: float = 30.0,
    grid_points: int = 32,
    n_jobs: int | None = None,
) -> dict[str, AggregateCurve]:
    """Sequential Fabolas comparison, Figure 9 (paper: 10 trials, eta = 4).

    ``Hyperband (by rung)`` and ``Hyperband (by bracket)`` are the *same
    runs* under the two incumbent accountings of Appendix A.2.  Fabolas's
    incumbent (lowest predicted full-data loss) is validated offline by
    training it to R, the paper's evaluation framework.
    """
    probe = _figure9_objective(benchmark, 0)
    r_max = probe.max_resource
    time_limit = horizon_multiple * r_max
    grid = np.linspace(0.0, time_limit, grid_points)
    tasks = [_Figure9Task(benchmark, seed, r_max, time_limit) for seed in range(num_trials)]
    per_seed = parallel_map(_run_figure9_seed, tasks, n_jobs)
    out = {}
    for name in ("Hyperband (by rung)", "Hyperband (by bracket)", "Fabolas", "Random"):
        records = [result[name] for result in per_seed]
        out[name] = aggregate(name, records, grid, band="minmax")
    return out


# --------------------------------------------------------------------------
# Section 3.2 / 3.3 claims.
# --------------------------------------------------------------------------


def claim_wallclock() -> dict[str, float]:
    """Section 3.2's wall-clock arithmetic on the toy bracket, verified.

    With 9 workers on Bracket 0 (``r = 1, R = 9, eta = 3``):

    * training each rung from scratch, ASHA returns a fully trained
      configuration at ``13/9 x time(R)`` (13 time units);
    * with checkpoint resume, at ``time(R)`` (9 units).
    """
    out = {}
    for label, from_checkpoint in (("from_scratch", False), ("checkpointed", True)):
        objective = toy_objective()
        rng = np.random.default_rng(0)
        scheduler = ASHA(
            objective.space,
            rng,
            min_resource=1.0,
            max_resource=9.0,
            eta=3,
            max_trials=9,
            searcher=FunctionSearcher(scripted_sampler(FIGURE2_QUALITIES)),
            from_checkpoint=from_checkpoint,
        )
        cluster = SimulatedCluster(9, seed=0)
        result = cluster.run(scheduler, objective, time_limit=100.0)
        out[label] = result.first_completion_time() or float("inf")
    out["time_R"] = 9.0
    return out


def claim_mispromotion(
    ns: Sequence[int] = (64, 256, 1024, 4096), eta: int = 4, repeats: int = 20
) -> list[MispromotionStudy]:
    """Section 3.3: rung-0 mispromotions grow like sqrt(n)."""
    return mispromotion_curve(list(ns), eta=eta, repeats=repeats)
