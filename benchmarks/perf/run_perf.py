"""The perf gates the system benchmark cannot express.

Speed is judged by ``benchmarks/system`` — six closed-loop workloads, end to
end, with the layers summing to the whole.  This harness keeps only what
none of those workloads drives or bounds, and writes it as a stable-schema
``BENCH_perf.json``:

* ``simulator_churn_events`` — simulated job completions per second on the
  PTB LSTM surrogate at 100 workers *with worker churn*: churn victim
  selection and re-queueing are the simulator path no system workload sets
  (``churn_rate`` occurs nowhere in ``benchmarks/system``).
* ``import_cold`` — what every CLI call, spawned child and service restart
  pays before its first line runs: ``import repro`` in a fresh interpreter,
  each round paired with a ``python -c pass`` child whose time (interpreter
  start) is subtracted.  ``meta.import_modules`` is the size of
  ``sys.modules`` afterwards — the count moves when a heavy dependency joins
  or leaves the import path, whatever the machine's speed.
* ``observability_overhead`` — the runtime-probe cost contract: a
  Study-driven scheduler workload and a small multiplexed workload are each
  timed back to back with the probe registry uninstalled and installed, and
  the entry is the *worse* workload's enabled/disabled ratio.  Carries a
  hard gated ``meta.ceiling`` of 1.03 — enabled probes must cost at most 3%
  on the instrumented hot paths, and the disabled paths (a pointer load +
  branch per site) are bounded above by the same number.
* ``multiplex_speedup`` — a 1k-study workload through the naive
  loop-per-study baseline (each study drives its own loop and fsyncs its
  own journal on a per-study cadence) divided by the multiplexer's time
  (group-commit WAL: one fsync per commit window).  Both sides provide the
  same bounded-crash-window durability and produce byte-identical journals
  (checked inside every round).  Carries a hard gated floor of 2.0x.

Every entry is the *median* of at least five rounds, with ``meta.rounds``
and ``meta.iqr`` (the spread between the rounds' quartiles) beside it; the
ratio entries pair both sides inside each round, so a load swing on the
machine lands on both.  ``check_regression.py`` reads the band.

Usage::

    PYTHONPATH=src python benchmarks/perf/run_perf.py [--quick] \
        [--output BENCH_perf.json] [--only NAME[,NAME...]]

``--quick`` shrinks every workload for CI smoke runs; the schema (and the
normalisation that makes scores comparable across machines) is identical in
both modes.  ``--only`` runs a subset by name (substring match) — the report
then contains just those entries, which ``check_regression.py`` treats as a
partial report (missing-vs-baseline rows are benign).  Compare two reports
with ``check_regression.py``.
"""

from __future__ import annotations

import argparse
import filecmp
import gc
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time

import numpy as np

from repro.backend.simulation import SimulatedCluster
from repro.core import ASHA
from repro.experiments.toys import toy_objective, toy_space
from repro.objectives import ptb_lstm
from repro.objectives.surrogate import seeded_uniform
from repro.study import Journal, Study, StudyMultiplexer
from repro.telemetry.runtime import install_runtime_registry, uninstall_runtime_registry

from perf_utils import SCHEMA_VERSION, benchmark_entry, calibrate, time_call

DEFAULT_OUTPUT = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "..", "..", "BENCH_perf.json"
)


# ----------------------------------------------------------- microbenches


def _simulate_churn(num_workers: int, horizon: float) -> int:
    """Completed measurements of one simulated ASHA run under worker churn."""
    objective = ptb_lstm.make_objective(seed_salt=0)
    rng = np.random.default_rng(0)
    r_max = ptb_lstm.R
    scheduler = ASHA(
        objective.space, rng, min_resource=r_max / 64.0, max_resource=r_max, eta=4
    )
    cluster = SimulatedCluster(
        num_workers,
        seed=7,
        straggler_std=0.2,
        drop_probability=0.002,
        churn_rate=2.0 / r_max,
        churn_downtime=r_max / 20.0,
    )
    result = cluster.run(scheduler, objective, time_limit=horizon * r_max)
    return len(result.measurements)


def bench_simulator_churn(
    num_workers: int, horizon: float, rounds: int = 5
) -> tuple[list[float], int]:
    """(per-round measurements/s, measurements per run) of the seeded churn run."""
    rates: list[float] = []
    measurements = 0
    for _ in range(rounds):
        seconds, measurements = time_call(lambda: _simulate_churn(num_workers, horizon))
        rates.append(measurements / seconds)
    return rates, measurements


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


def bench_multiplex_speedup(num_studies: int, rounds: int = 5) -> list[float]:
    """Per-round multiplexer speedup over the loop-per-study baseline, same
    durability: baseline seconds over multiplexed seconds, back to back in a
    fresh directory.

    Byte-identity between the two sides is asserted on sampled journals —
    the benchmark refuses to report a speedup for diverging runs.
    """
    speedups: list[float] = []
    for _ in range(rounds):
        with tempfile.TemporaryDirectory(prefix="perf_mux_") as directory:
            base_seconds, base_ops = _run_studies_baseline(directory, num_studies)
            mux_seconds, mux_ops = _run_studies_multiplexed(directory, num_studies)
            if base_ops != mux_ops:
                raise RuntimeError(
                    f"multiplex_speedup: op counts diverged (baseline {base_ops}, "
                    f"multiplexed {mux_ops})"
                )
            for i in (0, num_studies // 2, num_studies - 1):
                solo = os.path.join(directory, f"solo_{i}.jsonl")
                muxed = os.path.join(directory, f"mux_{i}.jsonl")
                if not filecmp.cmp(solo, muxed, shallow=False):
                    raise RuntimeError(
                        f"multiplex_speedup: journal {i} diverged between baseline "
                        "and multiplexed runs — byte-identity oracle violated"
                    )
        speedups.append(base_seconds / mux_seconds)
    return speedups


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


def bench_observability_overhead(quick: bool, rounds: int = 7) -> dict[str, list[float]]:
    """Per-round enabled/disabled slowdown ratios of each instrumented workload.

    Each workload constructs its instrumented objects *inside* the timed
    call (probes resolve at construction).  The two modes are timed in
    interleaved rounds — disabled then enabled, back to back, so a load
    swing on the machine hits both sides of a round roughly equally.  The
    registry is always uninstalled on the way out: the rest of the suite
    must run unprobed.
    """
    scheduler_jobs = 20_000 if quick else 60_000
    mux_studies = 200 if quick else 400

    def mux_workload() -> None:
        with tempfile.TemporaryDirectory(prefix="perf_obs_") as directory:
            _run_studies_multiplexed(directory, mux_studies)

    workloads = {
        "study_scheduler": lambda: _study_scheduler_workload(scheduler_jobs),
        "multiplex": mux_workload,
    }
    ratios: dict[str, list[float]] = {name: [] for name in workloads}
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for name, workload in workloads.items():
            workload()  # warm caches so neither mode pays first-run costs
            for _ in range(rounds):
                uninstall_runtime_registry()
                disabled = time_call(workload)[0]
                install_runtime_registry()
                try:
                    enabled = time_call(workload)[0]
                finally:
                    uninstall_runtime_registry()
                ratios[name].append(enabled / disabled)
    finally:
        if gc_was_enabled:
            gc.enable()
    return ratios


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


def run_suite(quick: bool, only: list[str] | None = None) -> dict:
    """Run every microbench (or the ``--only`` subset) and return the
    BENCH_perf.json document."""
    mode = "quick" if quick else "full"
    sim_workers = 50 if quick else 100
    sim_horizon = 1.0 if quick else 2.0
    # The floor is stated at 1k studies, in both modes.
    mux_speedup_studies = 1_000

    def want(name: str) -> bool:
        return only is None or any(token in name for token in only)

    print(f"[perf] calibrating ({mode} mode)...", flush=True)
    calibration = calibrate(iterations=500_000 if quick else 2_000_000)

    benchmarks: dict[str, dict] = {}

    if want("simulator_churn_events"):
        print("[perf] simulator_churn_events...", flush=True)
        rates, measurements = bench_simulator_churn(sim_workers, sim_horizon)
        benchmarks["simulator_churn_events"] = benchmark_entry(
            rates,
            "measurements/s",
            higher_is_better=True,
            calibration_ops_per_s=calibration,
            meta={"workers": sim_workers, "measurements": measurements},
        )

    if want("import_cold"):
        print("[perf] import_cold (fresh interpreters)...", flush=True)
        seconds, modules = bench_import_cold()
        benchmarks["import_cold"] = benchmark_entry(
            seconds,
            "s",
            higher_is_better=False,
            calibration_ops_per_s=calibration,
            meta={"import_modules": modules},
        )

    if want("observability_overhead"):
        print("[perf] observability_overhead (probes off vs on)...", flush=True)
        ratios = bench_observability_overhead(quick)
        medians = {name: statistics.median(per_round) for name, per_round in ratios.items()}
        benchmarks["observability_overhead"] = benchmark_entry(
            ratios[max(medians, key=medians.__getitem__)],
            "x",
            higher_is_better=False,
            # Already a same-machine ratio: normalise by 1.
            calibration_ops_per_s=1.0,
            meta={
                "ceiling": _OBS_OVERHEAD_CEILING,
                "gated": True,
                **{f"ratio_{name}": round(ratio, 4) for name, ratio in medians.items()},
            },
        )

    if want("multiplex_speedup"):
        print(f"[perf] multiplex_speedup ({mux_speedup_studies} studies)...", flush=True)
        benchmarks["multiplex_speedup"] = benchmark_entry(
            bench_multiplex_speedup(mux_speedup_studies),
            "x",
            higher_is_better=True,
            # A machine-relative ratio, like the overhead.
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
        half = entry["meta"]["iqr"] / 2
        print(f"  {name:24s} {entry['value']:>12.4f} ± {half:.4f} {entry['unit']}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
