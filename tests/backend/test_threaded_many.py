"""ThreadPoolBackend.run_many: one worker pool serving many studies."""

from __future__ import annotations

import numpy as np
import pytest

from repro.backend.faults import FailureInjectingObjective, RetryPolicy
from repro.backend.threaded import ThreadPoolBackend
from repro.core import build_scheduler
from repro.experiments.toys import toy_objective, toy_space
from repro.study import Journal, Study, read_journal
from repro.telemetry import InMemorySink, TelemetryHub


def make_scheduler(seed: int):
    return build_scheduler(
        "asha",
        toy_space(),
        np.random.default_rng(seed),
        min_resource=1.0,
        max_resource=9.0,
        eta=3,
    )


def test_run_many_completes_every_study():
    backend = ThreadPoolBackend(num_workers=4, poll_interval=0.001)
    objective = toy_objective()
    tasks = [(make_scheduler(i), objective) for i in range(5)]
    results = backend.run_many(tasks, time_limit=30.0, max_measurements=12)
    assert len(results) == 5
    for result in results:
        assert result.measurements
        assert result.jobs_dispatched >= len(result.measurements)
    # Per-study utilization is a share of the shared pool: sums to <= 1.
    assert sum(r.utilization for r in results) <= 1.0 + 1e-9


def test_run_many_journals_each_study_separately(tmp_path):
    backend = ThreadPoolBackend(num_workers=3, poll_interval=0.001)
    objective = toy_objective()
    tasks = []
    for i in range(3):
        study = Study(make_scheduler(i), journal=Journal(tmp_path / f"s{i}.jsonl"))
        tasks.append((study, objective))
    results = backend.run_many(tasks, time_limit=30.0, max_measurements=8)
    for i, result in enumerate(results):
        records, _, terminated = read_journal(tmp_path / f"s{i}.jsonl")
        assert terminated
        kinds = [r["kind"] for r in records]
        assert kinds[0] == "journal_header"
        # Every reported measurement has its tell in this study's journal.
        assert kinds.count("tell") == len(result.measurements)


def test_run_many_retries_crashed_jobs():
    objective = FailureInjectingObjective(
        toy_objective(), seed=0, crash_probability=0.3
    )
    backend = ThreadPoolBackend(num_workers=3, poll_interval=0.001)
    results = backend.run_many(
        [(make_scheduler(i), objective) for i in range(2)],
        time_limit=30.0,
        max_measurements=6,
        retry_policy=RetryPolicy(max_attempts=5, backoff=0.0),
    )
    assert all(r.measurements for r in results)
    assert sum(r.jobs_retried for r in results) > 0


def test_run_many_validations():
    backend = ThreadPoolBackend(num_workers=1)
    with pytest.raises(ValueError, match="no tasks"):
        backend.run_many([], time_limit=1.0)
    with pytest.raises(ValueError, match="time_limit"):
        backend.run_many([(make_scheduler(0), toy_objective())], time_limit=0.0)


def make_random(seed: int, max_trials: int):
    # Result-independent: its decisions do not depend on completion order,
    # so two runs of the one worker loop can be compared job for job.
    return build_scheduler(
        "random",
        toy_space(),
        np.random.default_rng(seed),
        min_resource=1.0,
        max_resource=9.0,
        eta=3,
        kwargs={"max_trials": max_trials},
    )


def test_run_is_run_many_of_one():
    # One worker serialises everything, so the solo entry point and a
    # one-task run_many must agree on every record, not just on counts.
    def drive(solo: bool):
        sink = InMemorySink()
        hub = TelemetryHub([sink])
        scheduler = make_random(7, max_trials=6)
        objective = FailureInjectingObjective(
            toy_objective(max_resource=9.0), crash_first=1
        )
        backend = ThreadPoolBackend(1, poll_interval=0.001)
        kwargs = dict(time_limit=30.0, retry_policy=RetryPolicy(max_attempts=3))
        if solo:
            result = backend.run(scheduler, objective, telemetry=hub, **kwargs)
        else:
            scheduler.attach_telemetry(hub)
            (result,) = backend.run_many([(scheduler, objective)], **kwargs)
        return (
            [(m.trial_id, m.resource, m.loss) for m in result.measurements],
            [(rec.trial_id, rec.reason, rec.action, rec.attempt) for rec in result.failure_log],
            [e.kind.value for e in sink.events if e.kind.value != "worker_idle"],
            result.telemetry is not None,
        )

    solo, many = drive(True), drive(False)
    assert solo == many
    assert len(solo[0]) == 6
    assert [action for _, _, action, _ in solo[1]] == ["retried"] * 6


def test_run_many_watchdog_retries_hung_jobs_of_both_studies():
    # The watchdog runs in the one shared loop: each study's hung first
    # attempt is failed near the deadline, the scheduler is released, and
    # the retry completes on another worker of the shared pool.
    hung = FailureInjectingObjective(
        toy_objective(max_resource=9.0, constant=False),
        hang_first=1,
        hang_duration=1.0,
        real_sleep=True,
    )
    backend = ThreadPoolBackend(4, poll_interval=0.001)
    results = backend.run_many(
        [(make_random(seed, max_trials=1), hung) for seed in (0, 1)],
        time_limit=20.0,
        retry_policy=RetryPolicy(max_attempts=3, timeout=0.15),
    )
    for result in results:
        assert len(result.measurements) == 1
        assert result.jobs_dispatched == 2
        assert [(rec.reason, rec.action) for rec in result.failure_log] == [
            ("timeout", "retried")
        ]
        assert 0.15 <= result.failure_log[0].lost < 0.8
    # Returned once the work was done — not at the time limit, and without
    # waiting for the hung threads' sleeps beyond the shutdown grace.
    assert results[0].elapsed < 10.0
