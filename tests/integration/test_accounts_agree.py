"""Every account of one run gives one answer.

A run is counted five times over: the :class:`BackendResult` the loop fills
in, the :class:`MetricsReport` folded from its event stream, the
reconstructed :class:`Trace`, the journal, and the scheduler itself.  The
property below draws a backend (the simulator or a 2-3-study multiplexer;
the thread pool runs its three fixed examples), a registry row, the
failure physics, a retry policy or none, a pool size and a stop rule, and
holds the first four accounts to each other: counts exactly, busy
worker-time and time lost to 1e-9.  Busy *time* is compared rather than
utilisation ratios, because under churn the trace's ratio has another
denominator (a rejoined worker's timeline starts at its first job) by
design.  A runtime registry installed around each example is the fifth
account: its ``backend_retries_total`` equals the results'
``jobs_retried``.  One example runs the process pool, its objective
training in worker processes under the cluster's drops.

The regression tests above it pin the bugs the property found: the
report kept the dispatch credit of attempts still running when a run
stopped and read no time lost without a retry policy, and a churn event
with every worker away added a worker to the cluster.
"""

from __future__ import annotations

import math
import time as _time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.backend import (
    FailureInjectingObjective,
    ProcessPoolBackend,
    RetryPolicy,
    SimulatedCluster,
    ThreadPoolBackend,
)
from repro.core import ASHA, RandomSearch, SynchronousSHA, build_scheduler
from repro.experiments.toys import toy_objective
from repro.objectives import ptb_lstm
from repro.study import Study, StudyMultiplexer, read_journal
from repro.telemetry import MetricsCollector, TelemetryHub
from repro.telemetry.runtime import install_runtime_registry, uninstall_runtime_registry

#: Registry rows and the kwargs that keep each one small.
ROWS = {
    "asha": {"max_trials": 16},
    "sha": {"n": 9},
    "hyperband": {"max_loops": 1},
    "async_hyperband": {},
    "bohb": {"n": 9},
    "random": {"max_trials": 16},
    "pbt": {},
    "gp": {"max_trials": 8},
}


def close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-9)


def busy_time(result) -> float:
    """Busy worker-time as ``BackendResult``, ``MetricsReport`` and ``Trace`` say it."""
    report, trace = result.telemetry, result.trace
    accounts = (
        result.utilization * report.num_workers * result.elapsed,
        sum(report.worker_utilization.values()) * report.elapsed,
        trace.utilization_report()["busy_time"],
    )
    assert all(close(value, accounts[0]) for value in accounts), accounts
    return accounts[0]


def assert_accounts_agree(result, tells: int) -> None:
    report, trace = result.telemetry, result.trace
    counters = report.counters
    attempts = [a for t in trace.trials.values() for a in t.attempts]
    completed = [a for a in attempts if a.completed]
    failed = [a for a in attempts if a.outcome not in ("completed", "running")]
    assert result.jobs_dispatched == counters.get("jobs_started", 0) == len(attempts)
    assert len(result.measurements) == counters.get("events.report", 0)
    assert len(result.measurements) == len(completed) == tells
    assert len(result.failures) == len(result.failure_log) == len(failed)
    assert len(result.failures) == counters.get("jobs_failed", 0) + counters.get(
        "jobs_timed_out", 0
    )
    assert result.jobs_retried == report.jobs_retried
    assert result.trials_abandoned == report.trials_abandoned
    assert close(result.time_lost_to_failures, report.time_lost_to_failures)
    busy_time(result)


def observed(**kwargs):
    return {"telemetry": TelemetryHub([MetricsCollector()]), "trace": True, **kwargs}


# ---------------------------------------------------------------- regressions


@pytest.mark.parametrize("workers", [8, 40])
def test_report_rolls_back_the_credit_of_attempts_running_at_the_stop(workers):
    # Synchronous SHA stopped at its first max-resource completion leaves
    # stragglers mid-job; the report used to keep their whole dispatch credit.
    objective = ptb_lstm.make_objective()
    r_max = ptb_lstm.R
    sha = SynchronousSHA(
        objective.space, np.random.default_rng(0), n=64, min_resource=r_max / 16,
        max_resource=r_max, eta=4,
    )
    result = SimulatedCluster(workers, straggler_std=0.5, seed=0).run(
        sha, objective, time_limit=1e9, stop_on_first_completion=True, **observed()
    )
    assert close(result.telemetry.mean_utilization(), result.utilization)
    busy_time(result)


class _Sleepy(FailureInjectingObjective):
    """Each ``train`` call takes 0.1 s of wall time."""

    def train(self, state, config, from_resource, to_resource):
        _time.sleep(0.1)
        return super().train(state, config, from_resource, to_resource)


@pytest.mark.parametrize("max_measurements", [None, 10])
def test_report_rolls_back_thread_attempts_running_at_the_stop(max_measurements):
    objective = _Sleepy(toy_objective())
    scheduler = RandomSearch(objective.space, np.random.default_rng(0), max_resource=9.0)
    result = ThreadPoolBackend(4).run(
        scheduler, objective, time_limit=0.33, max_measurements=max_measurements, **observed()
    )
    assert close(result.telemetry.mean_utilization(), result.utilization)


def test_report_counts_time_lost_without_a_retry_policy():
    objective = ptb_lstm.make_objective()
    r_max = ptb_lstm.R
    asha = ASHA(
        objective.space, np.random.default_rng(0), min_resource=r_max / 64,
        max_resource=r_max, eta=4,
    )
    result = SimulatedCluster(8, drop_probability=0.01, seed=0).run(
        asha, objective, time_limit=4 * r_max, **observed()
    )
    assert len(result.failures) > 10
    assert result.time_lost_to_failures > 0
    assert close(result.telemetry.time_lost_to_failures, result.time_lost_to_failures)


def test_churn_with_every_worker_away_adds_no_worker():
    # A churn event that finds no worker to fail used to schedule a rejoin
    # anyway, so one worker became two and busy time outgrew the cluster.
    objective = toy_objective()
    scheduler = RandomSearch(objective.space, np.random.default_rng(0), max_resource=9.0)
    result = SimulatedCluster(1, churn_rate=1.0, churn_downtime=5.0, seed=0).run(
        scheduler, objective, time_limit=200.0, **observed()
    )
    spans = sorted(
        (a.start, a.end) for t in result.trace.trials.values() for a in t.attempts
    )
    assert all(end <= start for (_, end), (start, _) in zip(spans, spans[1:]))
    assert busy_time(result) <= result.elapsed


# ------------------------------------------------------------------ property


def journal_tells(path) -> int:
    return sum(1 for record in read_journal(path)[0] if record["kind"] == "tell")


@settings(max_examples=30, deadline=None)
@given(
    backend=st.sampled_from(["sim", "mux"]),
    row=st.sampled_from(sorted(ROWS)),
    seed=st.integers(0, 10_000),
    workers=st.integers(1, 8),
    straggler_std=st.sampled_from([0.0, 0.5]),
    drop=st.sampled_from([0.0, 0.02]),
    churn=st.sampled_from([0.0, 0.05]),
    crash=st.sampled_from([0.0, 0.1]),
    hang=st.sampled_from([0.0, 0.1]),
    policy=st.sampled_from([None, "retry", "deadline"]),
    stop=st.sampled_from(["time_limit", "max_measurements", "first_completion"]),
)
@example(
    backend="threads", row="asha", seed=0, workers=3, straggler_std=0.0, drop=0.0,
    churn=0.0, crash=0.1, hang=0.1, policy="deadline", stop="time_limit",
)
@example(
    backend="threads", row="sha", seed=1, workers=4, straggler_std=0.0, drop=0.0,
    churn=0.0, crash=0.1, hang=0.0, policy=None, stop="max_measurements",
)
@example(
    backend="threads", row="hyperband", seed=2, workers=2, straggler_std=0.0, drop=0.0,
    churn=0.0, crash=0.0, hang=0.1, policy="retry", stop="time_limit",
)
@example(
    backend="procs", row="asha", seed=3, workers=4, straggler_std=0.5, drop=0.05,
    churn=0.0, crash=0.0, hang=0.0, policy="retry", stop="time_limit",
)
def test_every_account_of_a_run_agrees(
    tmp_path_factory, backend, row, seed, workers, straggler_std, drop, churn, crash, hang,
    policy, stop,
):
    # The runtime registry is the fifth account: installed before anything
    # binds its probes, it counts the retries the results count.
    registry = install_runtime_registry()
    try:
        results = run_accounts_example(
            tmp_path_factory, backend, row, seed, workers, straggler_std, drop, churn, crash,
            hang, policy, stop,
        )
        counters = registry.snapshot()["counters"]
    finally:
        uninstall_runtime_registry()
    retries = sum(
        value for name, value in counters.items() if name.startswith("backend_retries_total")
    )
    assert retries == sum(result.jobs_retried for result in results)
    if backend == "procs":  # the objective really trained in worker processes
        assert counters['backend_dispatch_total{backend="processes"}'] > 0


def run_accounts_example(
    tmp_path_factory, backend, row, seed, workers, straggler_std, drop, churn, crash, hang,
    policy, stop,
):
    threads = backend == "threads"
    studies = 1 if backend != "mux" else 2 + seed % 2
    root = tmp_path_factory.mktemp("accounts")
    deadline = {"timeout": 0.02} if threads else {"timeout_factor": 3.0}
    retry_policy = {
        None: None,
        "retry": RetryPolicy(max_attempts=2),
        "deadline": RetryPolicy(max_attempts=2, **deadline),
    }[policy]
    stop_rule = {
        "time_limit": {},
        "max_measurements": {"max_measurements": 5 + seed % 20},
        "first_completion": {"stop_on_first_completion": True},
    }[stop]
    runs = []
    for index in range(studies):
        objective = toy_objective(max_resource=9.0, constant=False)
        flaky = FailureInjectingObjective(
            objective, seed=seed + index, crash_probability=crash, hang_probability=hang,
            hang_duration=0.05 if threads else 40.0, real_sleep=threads,
        )
        if backend == "procs":  # the injector is not process-safe; drops stay
            assert crash == hang == 0.0
            flaky = objective
        scheduler = build_scheduler(
            row, objective.space, np.random.default_rng(seed + index), min_resource=1.0,
            max_resource=9.0, eta=3, kwargs=dict(ROWS[row]),
        )
        path = root / f"study{index}.jsonl"
        runs.append((Study(scheduler, journal=path), flaky, path))

    def options():  # each run gets a hub of its own
        return observed(retry_policy=retry_policy, **stop_rule)

    if threads:
        study, flaky, _ = runs[0]
        results = [ThreadPoolBackend(workers).run(study, flaky, time_limit=0.5, **options())]
    else:
        pool = {"n_procs": 2} if backend == "procs" else {}
        clusters = [
            (ProcessPoolBackend if pool else SimulatedCluster)(
                workers, straggler_std=straggler_std, drop_probability=drop,
                churn_rate=churn, churn_downtime=2.0, seed=seed + index, **pool,
            )
            for index in range(studies)
        ]
        if backend in ("sim", "procs"):
            study, flaky, _ = runs[0]
            results = [clusters[0].run(study, flaky, time_limit=60.0, **options())]
        else:
            mux = StudyMultiplexer(fair_share=1 + seed % 3)
            for (study, flaky, _), cluster in zip(runs, clusters):
                mux.add(study, flaky, cluster=cluster, time_limit=60.0, **options())
            results = mux.run().results
    for (study, _, path), result in zip(runs, results):
        study.close()
        assert_accounts_agree(result, journal_tells(path))
    return results
