"""The shared experiment driver: one search = scheduler + objective + cluster.

Every figure bench assembles the same pieces: build an objective (a fresh
instance per experiment trial, mimicking fresh data splits), build a
scheduler seeded per trial, run it on a simulated cluster, and track the
incumbent.  :func:`run_trials` does this across seeds and returns the
records the analysis layer aggregates.

Experiment trials are independent and fully seed-determined, so
:func:`run_trials` and :func:`run_methods` fan them out across processes
when asked (``n_jobs=`` / ``executor=`` / the ``REPRO_JOBS`` environment
variable — see :mod:`repro.experiments.parallel`).  Parallel output is
identical to sequential output: same records in the same order, same
telemetry metric reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from ..analysis.results import AggregateCurve, RunRecord, aggregate
from ..analysis.tracker import trace_incumbent
from ..backend.process_pool import ProcessPoolBackend
from ..backend.simulation import SimulatedCluster
from ..backend.trial_runner import BackendResult
from ..core.scheduler import Scheduler
from ..objectives.base import Objective
from ..study import Journal, Study, StudyMultiplexer
from ..telemetry import JSONLSink, TelemetryHub
from .parallel import parallel_map

__all__ = [
    "run_trials",
    "run_methods",
    "run_studies",
    "aggregate_methods",
    "sequence_seeds",
    "telemetry_event_path",
    "journal_path",
    "SchedulerFactory",
    "ObjectiveFactory",
    "TrialTask",
    "run_trial_task",
]

SchedulerFactory = Callable[[Objective, np.random.Generator], Scheduler]
ObjectiveFactory = Callable[[int], Objective]
TelemetryFactory = Callable[[int], TelemetryHub | None]


@dataclass(frozen=True)
class TrialTask:
    """One ``(method, seed)`` experiment trial, ready to execute anywhere.

    The single statement of what a scenario is: :func:`run_trials`,
    :func:`run_methods` and :func:`run_studies` take the fields after
    ``seed`` as keyword options and pass them here unchanged, so an unknown
    option is this dataclass's ``TypeError``.

    The spec itself is a plain frozen dataclass — picklable whenever its
    factories are (module-level functions).  Closure factories still work
    with the default fork-based pool, which inherits the spec instead of
    pickling it; see :mod:`repro.experiments.parallel`.
    """

    method: str
    #: ``(objective, rng) -> Scheduler``; the rng is seeded per trial.
    make_scheduler: SchedulerFactory
    #: ``seed -> Objective``; a fresh benchmark instance per trial.
    make_objective: ObjectiveFactory
    seed: int
    num_workers: int
    time_limit: float
    straggler_std: float = 0.0
    drop_probability: float = 0.0
    max_measurements: int | None = None
    #: ``seed -> TelemetryHub | None`` — one hub per trial (e.g. one JSONL
    #: file per seed).  Each run's metrics report is on its record's
    #: ``backend.telemetry``; under a process pool the hub lives in the
    #: worker, so inspect the report (or a file sink), not the hub object.
    telemetry: TelemetryFactory | None = None
    #: Directory for a per-trial JSONL event export
    #: (``<method>-seed<N>.jsonl``, created on demand), from which
    #: ``python -m repro.telemetry`` rebuilds a span/timeline trace.
    #: Ignored when a ``telemetry`` factory is given (it owns sink placement).
    telemetry_out: str | Path | None = None
    #: Directory for a per-trial crash-safety journal
    #: (``<method>-seed<N>.journal.jsonl``).  The trial then runs through a
    #: journal-backed :class:`~repro.study.Study` and can be resumed with
    #: ``Study.resume``; see ``docs/study.md``.
    journal_out: str | Path | None = None
    #: Execution backend for the trial's cluster: ``"simulated"`` (inline
    #: training) or ``"processes"`` (:class:`ProcessPoolBackend` — training
    #: increments run in a fork-based process pool, byte-identical output).
    #: Orthogonal to ``n_jobs``, which fans out *whole trials*: prefer
    #: ``n_jobs`` for many trials, ``"processes"`` when one expensive trial
    #: dominates.
    backend: str = "simulated"


def telemetry_event_path(directory: str | Path, method: str, seed: int) -> Path:
    """Canonical event-file location for one ``(method, seed)`` trial."""
    slug = "".join(c if c.isalnum() or c in "-_." else "_" for c in method)
    return Path(directory) / f"{slug}-seed{seed}.jsonl"


def journal_path(directory: str | Path, method: str, seed: int) -> Path:
    """Canonical journal location for one ``(method, seed)`` trial."""
    slug = "".join(c if c.isalnum() or c in "-_." else "_" for c in method)
    return Path(directory) / f"{slug}-seed{seed}.journal.jsonl"


def _ensure_output_dirs(*directories: str | Path | None) -> None:
    """Create output directories once, before any parallel fan-out.

    Forked trial workers used to each ``mkdir`` the telemetry/journal
    output directory on first use; creating it up front (``exist_ok=True``)
    removes the concurrent-mkdir window entirely, so workers only ever see
    an existing directory.
    """
    for directory in directories:
        if directory is not None:
            Path(directory).mkdir(parents=True, exist_ok=True)


def _setup_trial(task: TrialTask) -> tuple[Objective, Scheduler, SimulatedCluster]:
    """First half of a trial: its seed's objective, scheduler and cluster."""
    seed = task.seed
    objective = task.make_objective(seed)
    rng = np.random.default_rng(seed)
    scheduler = task.make_scheduler(objective, rng)
    if task.backend not in ("simulated", "processes"):
        raise KeyError(
            f"unknown trial backend {task.backend!r}; options: simulated, processes"
        )
    cluster_cls = ProcessPoolBackend if task.backend == "processes" else SimulatedCluster
    cluster = cluster_cls(
        task.num_workers,
        straggler_std=task.straggler_std,
        drop_probability=task.drop_probability,
        seed=seed + 10_000,
    )
    return objective, scheduler, cluster


def _trial_record(
    task: TrialTask, scheduler: Scheduler, backend_result: BackendResult
) -> RunRecord:
    """Second half of a trial: the finished run's incumbent trace, as a record."""
    trace = trace_incumbent(backend_result, scheduler)
    return RunRecord(method=task.method, seed=task.seed, trace=trace, backend=backend_result)


def run_trial_task(task: TrialTask) -> RunRecord:
    """Execute one experiment trial; the unit of work of the parallel engine."""
    seed = task.seed
    objective, scheduler, cluster = _setup_trial(task)
    hub = task.telemetry(seed) if task.telemetry is not None else None
    owned_hub = None
    if hub is None and task.telemetry_out is not None:
        path = telemetry_event_path(task.telemetry_out, task.method, seed)
        path.parent.mkdir(parents=True, exist_ok=True)
        hub = owned_hub = TelemetryHub.with_metrics(JSONLSink(path))
    runnable: Scheduler | Study = scheduler
    if task.journal_out is not None:
        jpath = journal_path(task.journal_out, task.method, seed)
        jpath.parent.mkdir(parents=True, exist_ok=True)
        runnable = Study(scheduler, journal=jpath)
    backend_result = cluster.run(
        runnable,
        objective,
        time_limit=task.time_limit,
        max_measurements=task.max_measurements,
        telemetry=hub,
    )
    if owned_hub is not None:
        owned_hub.close()
    return _trial_record(task, scheduler, backend_result)


def run_trials(
    method: str, make_scheduler: SchedulerFactory, make_objective: ObjectiveFactory, **options
) -> list[RunRecord]:
    """Run one tuning method across several experiment trials.

    ``options`` are those of :func:`run_methods`.
    """
    return run_methods({method: make_scheduler}, make_objective, **options)[method]


def run_methods(
    methods: Mapping[str, SchedulerFactory],
    make_objective: ObjectiveFactory,
    *,
    seeds: Iterable[int],
    n_jobs: int | None = None,
    executor=None,
    **scenario,
) -> dict[str, list[RunRecord]]:
    """Run a whole method suite, fanning out across ``(method, seed)`` pairs.

    The flat task list lets a pool of ``n_jobs`` workers chew through every
    method's trials at once instead of parallelising one method at a time —
    at Figure-5 scale the method with the slowest trials no longer gates the
    others.  Output is identical to calling :func:`run_trials` per method.

    ``scenario`` is every :class:`TrialTask` field after ``seed``
    (``num_workers``, ``time_limit``, ``straggler_std``, ...), documented
    there.  ``n_jobs`` is the number of trials to run concurrently in
    separate processes: ``None`` defers to ``$REPRO_JOBS`` (default 1),
    ``-1`` means all cores; records come back in seed order, byte-identical
    to ``n_jobs=1``.  ``executor`` is an optional pre-built
    :class:`concurrent.futures.Executor` to submit trials to instead of the
    engine's own fork pool (tasks must then be picklable); it wins over
    ``n_jobs``.
    """
    seeds = list(seeds)
    tasks = [
        TrialTask(name, factory, make_objective, seed, **scenario)
        for name, factory in methods.items()
        for seed in seeds
    ]
    # An explicit telemetry factory wins over telemetry_out (per-task logic in
    # run_trial_task), so only pre-create the directory when it will be used.
    _ensure_output_dirs(
        scenario.get("telemetry_out") if scenario.get("telemetry") is None else None,
        scenario.get("journal_out"),
    )
    records = parallel_map(run_trial_task, tasks, n_jobs, executor=executor)
    out: dict[str, list[RunRecord]] = {name: [] for name in methods}
    for task, record in zip(tasks, records):
        out[task.method].append(record)
    return out


def run_studies(
    method: str,
    make_scheduler: SchedulerFactory,
    make_objective: ObjectiveFactory,
    *,
    seeds: Iterable[int],
    journal_out: str | Path | None = None,
    fair_share: int | None = None,
    commit_interval: int = 64,
    **scenario,
) -> list[RunRecord]:
    """Run one method's trials as concurrent studies in a single multiplexer.

    The multiplexed sibling of :func:`run_trials`: instead of one driver
    loop (or one forked process) per trial, every seed's study runs
    concurrently over one shared simulated clock via
    :class:`~repro.study.StudyMultiplexer` — one process, one event loop,
    one group-commit journal writer.  Per-trial outputs are **identical**
    to sequential :func:`run_trials` (same records in the same order, and
    byte-identical journals when ``journal_out`` is set): the multiplexer's
    contract is that co-hosted studies cannot observe each other.

    Prefer this entry point when trials are cheap and numerous (the
    service-scale regime: many small studies through one process);
    :func:`run_trials` with ``n_jobs`` still wins when individual trials
    are heavy enough to want real CPU parallelism.

    ``scenario`` is the cluster half of :class:`TrialTask` (``num_workers``,
    ``time_limit``, ``straggler_std``, ``drop_probability``,
    ``max_measurements``); ``fair_share`` and ``commit_interval`` are the
    multiplexer's knobs — see :class:`~repro.study.StudyMultiplexer`.
    """
    _ensure_output_dirs(journal_out)
    mux = StudyMultiplexer(fair_share=fair_share, commit_interval=commit_interval)
    built: list[tuple[TrialTask, Scheduler]] = []
    for seed in seeds:
        task = TrialTask(method, make_scheduler, make_objective, seed, **scenario)
        # The same two halves as run_trial_task, so records match the
        # sequential path bit for bit; only the driver in between differs.
        objective, scheduler, cluster = _setup_trial(task)
        runnable: Scheduler | Study = scheduler
        if journal_out is not None:
            runnable = Study(
                scheduler,
                journal=Journal(
                    journal_path(journal_out, method, seed), writer=mux.journal_writer
                ),
            )
        mux.add(
            runnable,
            objective,
            cluster=cluster,
            time_limit=task.time_limit,
            max_measurements=task.max_measurements,
        )
        built.append((task, scheduler))
    if not built:
        return []
    return [
        _trial_record(task, scheduler, backend_result)
        for (task, scheduler), backend_result in zip(built, mux.run())
    ]


def aggregate_methods(
    records_by_method: dict[str, list[RunRecord]],
    *,
    time_limit: float,
    grid_points: int = 64,
    band: str = "minmax",
) -> dict[str, AggregateCurve]:
    """Aggregate each method's records on a shared time grid."""
    grid = np.linspace(0.0, time_limit, grid_points)
    return {
        method: aggregate(method, records, grid, band=band)
        for method, records in records_by_method.items()
    }


def sequence_seeds(base: int, count: int) -> Sequence[int]:
    """Deterministic per-trial seeds for an experiment family."""
    return [base + 1000 * i for i in range(count)]
