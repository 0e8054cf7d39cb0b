"""The perf-regression microbenchmark suite.

Times the three layers the paper's large-scale regime leans on — raw
scheduler decisions, the discrete-event simulator, and multi-trial
experiment runs — and writes a stable-schema ``BENCH_perf.json``:

* ``scheduler_asha_ops`` — ASHA ``next_job``/``report``/``is_done`` cycles
  per second, driven directly with synthetic losses (no simulator).  This
  is where the promotion-scan caching shows up.
* ``simulator_events`` / ``simulator_churn_events`` — simulated job
  completions per second on the PTB LSTM surrogate at 100 workers, without
  and with worker churn.  This is where the event queue, churn victim
  selection, and config-seed caching show up.
* ``simulator_events_calendar`` — the calendar-queue ``EventQueue`` alone
  under a hold-model churn (pop one event, push its successor) at a deep
  pending set, isolating the simulator core from scheduler and surrogate
  costs.
* ``end_to_end_asha`` — a multi-seed ASHA experiment at (reduced)
  Figure-5 scale through :func:`repro.experiments.runner.run_trials`,
  sequential.
* ``parallel_speedup`` / ``parallel_speedup_4`` / ``parallel_speedup_8`` —
  an 8-seed run of the same experiment with ``n_jobs`` 2/4/8, reported as
  speedup over its own sequential timing.  ``parallel_speedup`` carries a
  hard CI floor (``meta.floor``, gated); the 4/8-job entries are recorded
  for the docs table.  On machines with fewer than 4 cores the speedups are
  *skipped with a reason* (``meta.skipped``) rather than mis-gated —
  ``meta.cpu_count`` always records what the machine had.
* ``multiplex_studies`` — the service regime: one ``StudyMultiplexer``
  hosting 10k (quick: 1k) concurrent crash-durable journaled studies in a
  single process, reported as aggregate ask+tell operations per second.
* ``observability_overhead`` — the runtime-probe cost contract: a
  Study-driven scheduler workload and a small multiplexed workload are each
  timed back to back with the probe registry uninstalled and installed
  (paired, interleaved, best-of-k), and the entry's value is the *worst*
  enabled/disabled slowdown ratio.  Carries a hard gated ``meta.ceiling``
  of 1.03 — enabled probes must cost at most 3% on the instrumented hot
  paths, and the disabled paths (a pointer load + branch per site) are
  bounded above by the same number.
* ``journal_resume_restore`` / ``journal_resume_replay`` — recovery: one
  closed-loop client writes a 20k-tell (quick: 5k) journal, then each of
  several paired rounds times a restore-mode ``Study.resume`` (read, heal,
  re-drive the scheduler) and a full replay-mode pass (resume, then the
  same client verified record by record against the cursor) back to back.
  The value is the *median* round's records per second; ``meta.iqr`` is
  the spread between the rounds' quartiles.
* ``import_cold`` — what every CLI call, spawned child and service restart
  pays before its first line runs: ``import repro`` in a fresh interpreter,
  the *median* of several children, each paired with a ``python -c pass``
  child whose time (interpreter start) is subtracted.  ``meta.iqr`` is the
  spread between the rounds' quartiles and ``meta.import_modules`` the size
  of ``sys.modules`` afterwards — the count moves when a heavy dependency
  joins or leaves the import path, whatever the machine's speed.
* ``multiplex_speedup`` — the same 1k-study workload through the naive
  loop-per-study baseline (each study drives its own loop and fsyncs its
  own journal on a per-study cadence) divided by the multiplexer's time
  (group-commit WAL: one fsync per commit window).  Both sides provide the
  same bounded-crash-window durability and produce byte-identical journals
  (checked inside the benchmark).  Carries a hard gated floor of 2.0x.

Usage::

    PYTHONPATH=src python benchmarks/perf/run_perf.py [--quick] \
        [--output BENCH_perf.json] [--only NAME[,NAME...]]

``--quick`` shrinks every workload for CI smoke runs; the schema (and the
normalisation that makes scores comparable across machines) is identical in
both modes.  ``--only`` runs a subset by name (substring match, e.g.
``--only multiplex`` for the load-smoke CI job) — the report then contains
just those entries, which ``check_regression.py`` treats as a partial
report (missing-vs-baseline rows are benign).  Compare two reports with
``check_regression.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from collections import deque

import numpy as np

from repro.backend.events import EventQueue
from repro.backend.simulation import SimulatedCluster
from repro.core import ASHA
from repro.experiments.runner import run_trials
from repro.experiments.toys import toy_objective, toy_space
from repro.objectives import ptb_lstm
from repro.objectives.surrogate import seeded_uniform
from repro.study import Journal, Study, StudyMultiplexer

from perf_utils import SCHEMA_VERSION, benchmark_entry, calibrate, skipped_entry, time_call

DEFAULT_OUTPUT = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "..", "..", "BENCH_perf.json"
)


# ----------------------------------------------------------- microbenches


def bench_scheduler_ops(num_jobs: int) -> tuple[float, int]:
    """(seconds, jobs dispatched) driving ASHA directly with synthetic losses."""
    objective = ptb_lstm.make_objective(seed_salt=0)
    rng = np.random.default_rng(0)
    r_max = ptb_lstm.R
    scheduler = ASHA(
        objective.space, rng, min_resource=r_max / 64.0, max_resource=r_max, eta=4
    )
    start = time.perf_counter()
    dispatched = 0
    for _ in range(num_jobs):
        if scheduler.is_done():
            break
        job = scheduler.next_job()
        if job is None:
            break
        # Synthetic loss keyed by trial id and rung: deterministic, free.
        scheduler.report(job, 1.0 + seeded_uniform(job.trial_id, float(job.rung)))
        dispatched += 1
    return time.perf_counter() - start, dispatched


def bench_event_queue(num_ops: int, pending: int) -> tuple[float, int]:
    """(seconds, operations) of hold-model churn on the calendar EventQueue.

    Seeds ``pending`` events, then repeatedly pops the earliest and pushes
    its successor at ``popped.time + delta`` — the classic *hold* workload
    every event-driven simulator core reduces to.  Deltas are precomputed so
    the timed region is queue operations only; each hold counts as two
    operations (one pop, one push).
    """
    rng = np.random.default_rng(3)
    deltas = [float(d) for d in rng.exponential(1.0, size=8192)]
    queue = EventQueue()
    for t in rng.uniform(0.0, 50.0, size=pending):
        queue.push(float(t), "seed")
    n_deltas = len(deltas)
    start = time.perf_counter()
    for i in range(num_ops):
        event = queue.pop()
        queue.push(event.time + deltas[i % n_deltas], "hold")
    return time.perf_counter() - start, num_ops * 2


def _simulate(num_workers: int, horizon: float, churn: bool) -> int:
    objective = ptb_lstm.make_objective(seed_salt=0)
    rng = np.random.default_rng(0)
    r_max = ptb_lstm.R
    scheduler = ASHA(
        objective.space, rng, min_resource=r_max / 64.0, max_resource=r_max, eta=4
    )
    kwargs = dict(straggler_std=0.2, drop_probability=0.002)
    if churn:
        kwargs.update(churn_rate=2.0 / r_max, churn_downtime=r_max / 20.0)
    cluster = SimulatedCluster(num_workers, seed=7, **kwargs)
    result = cluster.run(scheduler, objective, time_limit=horizon * r_max)
    return len(result.measurements)


def bench_simulator(num_workers: int, horizon: float, *, churn: bool) -> tuple[float, int]:
    """(seconds, completed measurements) of one simulated ASHA run."""
    seconds, measurements = time_call(lambda: _simulate(num_workers, horizon, churn))
    return seconds, measurements


def _end_to_end(num_workers: int, horizon: float, seeds: range, n_jobs: int) -> int:
    r_max = ptb_lstm.R

    def make_scheduler(objective, rng):
        return ASHA(
            objective.space, rng, min_resource=r_max / 64.0, max_resource=r_max, eta=4
        )

    records = run_trials(
        "ASHA",
        make_scheduler,
        lambda seed: ptb_lstm.make_objective(seed_salt=seed),
        num_workers=num_workers,
        time_limit=horizon * r_max,
        seeds=seeds,
        n_jobs=n_jobs,
    )
    return sum(len(r.backend.measurements) for r in records)


#: Seeds for the speedup suite — divisible by every measured n_jobs so the
#: chunked dispatcher hands each worker equally-sized spans.
SPEEDUP_SEEDS = range(8)

#: (benchmark name, n_jobs, cores required, hard floor enforced by CI).
#: Only the 2-job floor is gated — the 4/8-job entries feed the docs table
#: and record their target floors informationally (ISSUE acceptance: the CI
#: gate enforces the n_jobs=2 floor).
SPEEDUP_BENCHES = [
    ("parallel_speedup", 2, 4, 1.3, True),
    ("parallel_speedup_4", 4, 4, None, False),
    ("parallel_speedup_8", 8, 8, 2.5, False),
]


def bench_parallel_speedups(num_workers: int, horizon: float) -> dict[str, dict]:
    """The ``n_jobs ∈ {2, 4, 8}`` speedup entries, skipping what this machine
    cannot measure.

    One 8-seed sequential run is timed as the reference, then each parallel
    configuration against it.  Runners with fewer than 4 cores cannot
    measure any speedup honestly (fork overhead dominates and the gate would
    mis-fire), so every entry below the core requirement is recorded as
    skipped with the machine's ``cpu_count`` — never silently mis-gated.
    """
    cpu_count = os.cpu_count() or 1
    entries: dict[str, dict] = {}
    measurable = [b for b in SPEEDUP_BENCHES if cpu_count >= b[2]]
    sequential_seconds = None
    if measurable:
        print(f"[perf] parallel speedup reference ({len(SPEEDUP_SEEDS)} seeds, sequential)...",
              flush=True)
        sequential_seconds, _ = time_call(
            lambda: _end_to_end(num_workers, horizon, SPEEDUP_SEEDS, 1)
        )
    for name, n_jobs, min_cores, floor, gated in SPEEDUP_BENCHES:
        meta: dict = {"n_jobs": n_jobs, "cpu_count": cpu_count, "gated": gated}
        if floor is not None:
            meta["floor"] = floor
        if cpu_count < min_cores:
            entries[name] = skipped_entry(
                "x",
                higher_is_better=True,
                reason=f"requires >= {min_cores} cores, machine has {cpu_count}",
                meta=meta,
            )
            print(f"[perf] {name} skipped ({cpu_count} cores < {min_cores})", flush=True)
            continue
        print(f"[perf] {name} (n_jobs={n_jobs})...", flush=True)
        seconds, _ = time_call(lambda: _end_to_end(num_workers, horizon, SPEEDUP_SEEDS, n_jobs))
        entries[name] = benchmark_entry(
            sequential_seconds / seconds,
            "x",
            higher_is_better=True,
            # Speedup is already a machine-relative ratio: normalise by 1.
            calibration_ops_per_s=1.0,
            meta=meta,
        )
    return entries


#: Per-study work in the multiplex benchmarks: small on purpose.  The
#: service regime is many mostly-idle studies, where per-study overhead
#: (driver loop, journal durability) dominates — exactly what the
#: multiplexer amortises.
_MUX_WORKERS = 2
_MUX_MEASUREMENTS = 3
#: The naive baseline's durability cadence: fsync its journal every this
#: many records, bounding the crash window the same way the multiplexer's
#: commit window does.
_BASELINE_FSYNC_EVERY = 16


class _CadenceJournal(Journal):
    """A solo journal made crash-durable every ``_BASELINE_FSYNC_EVERY``
    appends — the loop-per-study baseline's equivalent of the multiplexer's
    per-window group commit.  Same bounded-loss guarantee, paid with one
    fsync per study per cadence instead of one per window for all studies.
    """

    def append(self, record):
        super().append(record)
        self._cadence = getattr(self, "_cadence", 0) + 1
        if self._cadence >= _BASELINE_FSYNC_EVERY:
            self._cadence = 0
            self._file.flush()
            os.fsync(self._file.fileno())


def _mux_scheduler(seed: int):
    return ASHA(
        toy_space(), np.random.default_rng(seed), min_resource=1.0, max_resource=9.0, eta=3
    )


def _run_studies_baseline(directory: str, num_studies: int) -> tuple[float, int]:
    """(seconds, ask+tell ops) of the naive loop-per-study driver."""
    objective = toy_objective()
    items = [
        (
            Study(
                _mux_scheduler(i),
                journal=_CadenceJournal(os.path.join(directory, f"solo_{i}.jsonl")),
            ),
            SimulatedCluster(_MUX_WORKERS, seed=10_000 + i),
        )
        for i in range(num_studies)
    ]
    start = time.perf_counter()
    ops = 0
    for study, cluster in items:
        result = cluster.run(
            study, objective, time_limit=200.0, max_measurements=_MUX_MEASUREMENTS
        )
        ops += result.jobs_dispatched + len(result.measurements)
    return time.perf_counter() - start, ops


def _run_studies_multiplexed(directory: str, num_studies: int) -> tuple[float, int]:
    """(seconds, ask+tell ops) of the same studies through the multiplexer."""
    objective = toy_objective()
    mux = StudyMultiplexer(
        commit_interval=256, wal_path=os.path.join(directory, "journals.wal")
    )
    for i in range(num_studies):
        study = Study(
            _mux_scheduler(i),
            journal=Journal(os.path.join(directory, f"mux_{i}.jsonl"), writer=mux.journal_writer),
        )
        mux.add(
            study,
            objective,
            cluster=SimulatedCluster(_MUX_WORKERS, seed=10_000 + i),
            time_limit=200.0,
            max_measurements=_MUX_MEASUREMENTS,
        )
    start = time.perf_counter()
    results = mux.run()
    seconds = time.perf_counter() - start
    return seconds, sum(r.jobs_dispatched + len(r.measurements) for r in results)


def bench_multiplex_studies(num_studies: int) -> tuple[float, int]:
    """(seconds, ask+tell ops) hosting ``num_studies`` concurrent durable
    studies in one multiplexer — the capacity benchmark."""
    with tempfile.TemporaryDirectory(prefix="perf_mux_") as directory:
        return _run_studies_multiplexed(directory, num_studies)


def bench_multiplex_speedup(num_studies: int) -> float:
    """Multiplexer speedup over the loop-per-study baseline, same durability.

    Byte-identity between the two sides is asserted on sampled journals —
    the benchmark refuses to report a speedup for diverging runs.
    """
    with tempfile.TemporaryDirectory(prefix="perf_mux_") as directory:
        base_seconds, base_ops = _run_studies_baseline(directory, num_studies)
        mux_seconds, mux_ops = _run_studies_multiplexed(directory, num_studies)
        if base_ops != mux_ops:
            raise RuntimeError(
                f"multiplex_speedup: op counts diverged (baseline {base_ops}, "
                f"multiplexed {mux_ops})"
            )
        for i in (0, num_studies // 2, num_studies - 1):
            with open(os.path.join(directory, f"solo_{i}.jsonl"), "rb") as fh:
                solo_bytes = fh.read()
            with open(os.path.join(directory, f"mux_{i}.jsonl"), "rb") as fh:
                mux_bytes = fh.read()
            if solo_bytes != mux_bytes:
                raise RuntimeError(
                    f"multiplex_speedup: journal {i} diverged between baseline "
                    "and multiplexed runs — byte-identity oracle violated"
                )
        return base_seconds / mux_seconds


#: The observability acceptance bar: enabled probes may slow an
#: instrumented hot path by at most this factor (CI-gated via
#: ``meta.ceiling``).
_OBS_OVERHEAD_CEILING = 1.03


def _study_scheduler_workload(num_jobs: int) -> int:
    """Ask/tell cycles (32 in flight) through the instrumented ``Study`` surface."""
    study = Study(
        ASHA(
            toy_space(),
            np.random.default_rng(0),
            min_resource=1.0,
            max_resource=81.0,
            eta=3,
        )
    )
    dispatched = 0
    while dispatched < num_jobs:
        jobs = study.ask_batch(min(32, num_jobs - dispatched))
        if not jobs:
            break
        study.tell_batch(
            [(job, 1.0 + seeded_uniform(job.trial_id, float(job.rung))) for job in jobs]
        )
        dispatched += len(jobs)
    return dispatched


def bench_observability_overhead(quick: bool) -> dict[str, float]:
    """Enabled/disabled slowdown ratio per instrumented workload.

    Each workload constructs its instrumented objects *inside* the timed
    call (probes resolve at construction).  The two modes are timed in
    interleaved rounds — disabled then enabled, back to back, so a load
    swing on the machine hits both sides of a round roughly equally — and
    the reported ratio is the *median* of the per-round ratios, which a
    single noisy round cannot move.  The registry is always uninstalled on
    the way out: the rest of the suite must run unprobed.
    """
    import gc
    import statistics

    from repro.telemetry.runtime import install_runtime_registry, uninstall_runtime_registry

    scheduler_jobs = 20_000 if quick else 60_000
    mux_studies = 200 if quick else 400
    rounds = 7

    def mux_workload() -> None:
        with tempfile.TemporaryDirectory(prefix="perf_obs_") as directory:
            _run_studies_multiplexed(directory, mux_studies)

    workloads = {
        "study_scheduler": lambda: _study_scheduler_workload(scheduler_jobs),
        "multiplex": mux_workload,
    }
    ratios: dict[str, float] = {}
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for name, workload in workloads.items():
            workload()  # warm caches so neither mode pays first-run costs
            per_round: list[float] = []
            for _ in range(rounds):
                uninstall_runtime_registry()
                disabled = time_call(workload)[0]
                install_runtime_registry()
                try:
                    enabled = time_call(workload)[0]
                finally:
                    uninstall_runtime_registry()
                per_round.append(enabled / disabled)
            ratios[name] = statistics.median(per_round)
    finally:
        if gc_was_enabled:
            gc.enable()
    return ratios


# ------------------------------------------------------------ resume


def _resume_scheduler() -> ASHA:
    """The ask/tell client's scheduler: ASHA over the PTB LSTM space, eta 4."""
    return ASHA(
        ptb_lstm.space(),
        np.random.default_rng(0),
        min_resource=ptb_lstm.R / 64.0,
        max_resource=ptb_lstm.R,
        eta=4,
    )


def _drive_client(study: Study, tells: int) -> int:
    """Closed loop: keep 64 jobs in flight, tell the oldest; asks + tells made."""
    in_flight: deque = deque()
    asks = told = 0
    while told < tells:
        while len(in_flight) < 64 and (job := study.ask()) is not None:
            in_flight.append(job)
            asks += 1
        if not in_flight:
            break
        job = in_flight.popleft()
        study.tell(job, seeded_uniform(0, job.job_id))
        told += 1
    return asks + told


def bench_journal_resume(tells: int, rounds: int = 7) -> tuple[int, dict[str, list[float]]]:
    """(records, per-round records/s by mode) resuming one journal both ways.

    A round is one restore and one replay back to back, so a load swing on
    the machine lands on both.  Restore is ``Study.resume`` alone; replay is
    the resume plus the client re-run against the cursor until it is
    exhausted — the whole of what each mode costs before new work starts.
    Schedulers are built outside the timed calls.
    """
    with tempfile.TemporaryDirectory(prefix="perf_resume_") as directory:
        path = os.path.join(directory, "resume.journal.jsonl")
        study = Study(_resume_scheduler(), journal=path)
        records = _drive_client(study, tells)
        study.finalize()
        study.close()
        size = os.path.getsize(path)

        def restore(scheduler: ASHA) -> None:
            Study.resume(path, scheduler=scheduler, mode="restore").close()

        def replay(scheduler: ASHA) -> None:
            resumed = Study.resume(path, scheduler=scheduler, mode="replay")
            _drive_client(resumed, tells)
            still_replaying = resumed.replaying
            resumed.close()
            if still_replaying or os.path.getsize(path) != size:
                raise RuntimeError("journal_resume_replay: the replay left its journal")

        rates: dict[str, list[float]] = {"restore": [], "replay": []}
        for _ in range(rounds):
            for name, resume in (("restore", restore), ("replay", replay)):
                scheduler = _resume_scheduler()
                seconds, _ = time_call(lambda: resume(scheduler))
                rates[name].append(records / seconds)
        return records, rates


# ------------------------------------------------------------ cold start


def bench_import_cold(rounds: int = 7) -> tuple[list[float], int]:
    """(per-round seconds of ``import repro``, modules it loads) in fresh children.

    A round is a ``python -c "import repro"`` child and a ``python -c pass``
    child back to back; their difference is the import alone.  Children
    inherit this process's environment, so they find ``repro`` the way the
    harness did.
    """

    def child(code: str) -> subprocess.CompletedProcess[str]:
        return subprocess.run(
            [sys.executable, "-c", code], check=True, capture_output=True, text=True
        )

    seconds = [
        time_call(lambda: child("import repro"))[0] - time_call(lambda: child("pass"))[0]
        for _ in range(rounds)
    ]
    modules = int(child("import repro, sys; print(len(sys.modules))").stdout)
    return seconds, modules


# ------------------------------------------------------------------- main


def _src_lines() -> int:
    """Lines of Python under ``src/`` — the same count the system benchmark reports."""
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "..", "src")
    total = 0
    for directory, _, files in os.walk(src):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(directory, name), "rb") as fh:
                    total += sum(1 for _ in fh)
    return total


def run_suite(quick: bool, only: list[str] | None = None) -> dict:
    """Run every microbench (or the ``--only`` subset) and return the
    BENCH_perf.json document."""
    mode = "quick" if quick else "full"
    scheduler_jobs = 20_000 if quick else 100_000
    sim_workers = 50 if quick else 100
    sim_horizon = 1.0 if quick else 2.0
    e2e_workers = 50 if quick else 200
    e2e_horizon = 1.0 if quick else 2.0
    e2e_seeds = range(2 if quick else 3)
    mux_studies = 1_000 if quick else 10_000
    # The ISSUE's acceptance pins the speedup baseline at 1k studies.
    mux_speedup_studies = 1_000

    def want(name: str) -> bool:
        return only is None or any(token in name for token in only)

    print(f"[perf] calibrating ({mode} mode)...", flush=True)
    calibration = calibrate(iterations=500_000 if quick else 2_000_000)

    benchmarks: dict[str, dict] = {}

    if want("scheduler_asha_ops"):
        print("[perf] scheduler_asha_ops...", flush=True)
        seconds, dispatched = bench_scheduler_ops(scheduler_jobs)
        benchmarks["scheduler_asha_ops"] = benchmark_entry(
            dispatched / seconds,
            "jobs/s",
            higher_is_better=True,
            calibration_ops_per_s=calibration,
            meta={"jobs": dispatched},
        )

    if want("simulator_events"):
        print("[perf] simulator_events...", flush=True)
        seconds, measurements = bench_simulator(sim_workers, sim_horizon, churn=False)
        benchmarks["simulator_events"] = benchmark_entry(
            measurements / seconds,
            "measurements/s",
            higher_is_better=True,
            calibration_ops_per_s=calibration,
            meta={"workers": sim_workers, "measurements": measurements},
        )

    if want("simulator_churn_events"):
        print("[perf] simulator_churn_events...", flush=True)
        seconds, measurements = bench_simulator(sim_workers, sim_horizon, churn=True)
        benchmarks["simulator_churn_events"] = benchmark_entry(
            measurements / seconds,
            "measurements/s",
            higher_is_better=True,
            calibration_ops_per_s=calibration,
            meta={"workers": sim_workers, "measurements": measurements},
        )

    if want("simulator_events_calendar"):
        print("[perf] simulator_events_calendar...", flush=True)
        queue_ops = 50_000 if quick else 200_000
        queue_pending = 1024 if quick else 4096
        seconds, ops = bench_event_queue(queue_ops, queue_pending)
        benchmarks["simulator_events_calendar"] = benchmark_entry(
            ops / seconds,
            "ops/s",
            higher_is_better=True,
            calibration_ops_per_s=calibration,
            meta={"pending": queue_pending, "ops": ops},
        )

    if want("end_to_end_asha"):
        print("[perf] end_to_end_asha (sequential)...", flush=True)
        seconds, _ = time_call(lambda: _end_to_end(e2e_workers, e2e_horizon, e2e_seeds, 1))
        benchmarks["end_to_end_asha"] = benchmark_entry(
            seconds,
            "s",
            higher_is_better=False,
            calibration_ops_per_s=calibration,
            meta={"workers": e2e_workers, "seeds": len(e2e_seeds)},
        )

    if want("parallel_speedup"):
        benchmarks.update(bench_parallel_speedups(e2e_workers, e2e_horizon))

    if want("multiplex_studies"):
        print(f"[perf] multiplex_studies ({mux_studies} studies)...", flush=True)
        seconds, ops = bench_multiplex_studies(mux_studies)
        benchmarks["multiplex_studies"] = benchmark_entry(
            ops / seconds,
            "ops/s",
            higher_is_better=True,
            calibration_ops_per_s=calibration,
            meta={
                "studies": mux_studies,
                "workers": _MUX_WORKERS,
                "measurements_per_study": _MUX_MEASUREMENTS,
                "ask_tell_ops": ops,
            },
        )

    if want("observability_overhead"):
        print("[perf] observability_overhead (probes off vs on)...", flush=True)
        ratios = bench_observability_overhead(quick)
        worst = max(ratios.values())
        benchmarks["observability_overhead"] = benchmark_entry(
            worst,
            "x",
            higher_is_better=False,
            # Already a same-machine ratio: normalise by 1.
            calibration_ops_per_s=1.0,
            meta={
                "ceiling": _OBS_OVERHEAD_CEILING,
                "gated": True,
                **{f"ratio_{name}": round(ratio, 4) for name, ratio in ratios.items()},
            },
        )

    if want("journal_resume"):
        resume_tells = 5_000 if quick else 20_000
        print(f"[perf] journal_resume_restore/_replay ({resume_tells} tells)...", flush=True)
        records, rates = bench_journal_resume(resume_tells)
        for resume_mode, per_round in rates.items():
            quartiles = statistics.quantiles(per_round, n=4)
            benchmarks[f"journal_resume_{resume_mode}"] = benchmark_entry(
                statistics.median(per_round),
                "records/s",
                higher_is_better=True,
                calibration_ops_per_s=calibration,
                meta={
                    "tells": resume_tells,
                    "records": records,
                    "rounds": len(per_round),
                    "iqr": round(quartiles[2] - quartiles[0], 1),
                },
            )

    if want("import_cold"):
        print("[perf] import_cold (fresh interpreters)...", flush=True)
        per_round, modules = bench_import_cold()
        quartiles = statistics.quantiles(per_round, n=4)
        benchmarks["import_cold"] = benchmark_entry(
            statistics.median(per_round),
            "s",
            higher_is_better=False,
            calibration_ops_per_s=calibration,
            meta={
                "rounds": len(per_round),
                "iqr": round(quartiles[2] - quartiles[0], 4),
                "import_modules": modules,
            },
        )

    if want("multiplex_speedup"):
        print(f"[perf] multiplex_speedup ({mux_speedup_studies} studies)...", flush=True)
        speedup = bench_multiplex_speedup(mux_speedup_studies)
        benchmarks["multiplex_speedup"] = benchmark_entry(
            speedup,
            "x",
            higher_is_better=True,
            # A machine-relative ratio, like the parallel speedups.
            calibration_ops_per_s=1.0,
            meta={
                "studies": mux_speedup_studies,
                "baseline": "loop-per-study",
                "baseline_fsync_every": _BASELINE_FSYNC_EVERY,
                "floor": 2.0,
                "gated": True,
            },
        )

    return {
        "schema_version": SCHEMA_VERSION,
        "mode": mode,
        "python": platform.python_version(),
        "calibration_ops_per_s": calibration,
        # The size trajectory beside the speed numbers (ROADMAP aim 2).
        "meta": {"src_lines": _src_lines()},
        "benchmarks": benchmarks,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="reduced CI-smoke workloads")
    parser.add_argument("--output", default=DEFAULT_OUTPUT, help="report path")
    parser.add_argument(
        "--only",
        metavar="NAME[,NAME...]",
        help="run only benchmarks whose name contains one of these tokens "
        "(partial report; missing-vs-baseline rows are benign in the gate)",
    )
    args = parser.parse_args(argv)

    only = [token.strip() for token in args.only.split(",")] if args.only else None
    report = run_suite(args.quick, only=only)
    output = os.path.abspath(args.output)
    with open(output, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"[perf] wrote {output}")
    for name, entry in report["benchmarks"].items():
        if entry["value"] is None:
            print(f"  {name:24s} {'skipped':>12s} ({entry['meta']['skip_reason']})")
        else:
            print(f"  {name:24s} {entry['value']:>12.2f} {entry['unit']}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
