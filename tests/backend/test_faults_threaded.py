"""Fault tolerance on the real thread pool: retries, watchdog timeouts,
exception capture, and the bounded-shutdown fix."""

from __future__ import annotations

import time as _time

import numpy as np
import pytest

from repro.backend import (
    FailureInjectingObjective,
    RetryPolicy,
    ThreadPoolBackend,
)
from repro.core import RandomSearch
from repro.core.contract import ContractChecker
from repro.experiments.toys import toy_objective
from repro.telemetry import TelemetryHub

R = 9.0


def make_search(max_trials: int, seed: int = 0):
    objective = toy_objective(max_resource=R, constant=False)
    rs = RandomSearch(
        objective.space, np.random.default_rng(seed), max_resource=R, max_trials=max_trials
    )
    return objective, rs


class TestThreadedRetries:
    def test_first_crash_retried_then_succeeds(self):
        objective, rs = make_search(4)
        flaky = FailureInjectingObjective(objective, crash_first=1)
        checked = ContractChecker(rs)
        backend = ThreadPoolBackend(2)
        result = backend.run(
            checked, flaky, time_limit=30.0, retry_policy=RetryPolicy(max_attempts=3)
        )
        assert len(result.measurements) == 4
        assert result.jobs_retried == 4  # one injected crash per config
        assert result.trials_abandoned == 0
        assert checked.outstanding_jobs == 0
        assert all(rec.action == "retried" for rec in result.failure_log)
        assert all(
            rec.error is not None and "InjectedFailure" in rec.error
            for rec in result.failure_log
        )

    def test_always_crashing_trials_abandoned(self):
        objective, rs = make_search(3)
        doomed = FailureInjectingObjective(objective, crash_first=10**6)
        backend = ThreadPoolBackend(2)
        result = backend.run(
            ContractChecker(rs),
            doomed,
            time_limit=30.0,
            retry_policy=RetryPolicy(max_attempts=2),
        )
        assert result.measurements == []
        assert result.trials_abandoned == 3
        assert result.jobs_retried == 3  # one retry each before quarantine
        assert rs.is_done()

    def test_exception_repr_captured_without_policy(self):
        """Satellite fix: the bare `except Exception` used to discard the
        traceback; the failure record and event now carry repr(exc)."""
        objective, rs = make_search(2)
        doomed = FailureInjectingObjective(objective, crash_first=10**6)
        backend = ThreadPoolBackend(2)
        result = backend.run(ContractChecker(rs), doomed, time_limit=30.0)
        assert len(result.failure_log) == 2
        for rec in result.failure_log:
            assert rec.action == "forfeited"
            assert rec.reason == "exception"
            assert rec.error is not None
            assert "InjectedFailure" in rec.error
            assert "injected crash" in rec.error


class TestThreadedTimeouts:
    def test_watchdog_kills_and_retries_hung_job(self):
        """A job sleeping past the wall-clock deadline is failed by the
        watchdog, the scheduler is released immediately (the sleeping thread
        cannot be preempted), and the retry completes on another worker."""
        objective, rs = make_search(2)
        hung = FailureInjectingObjective(
            objective, hang_first=1, hang_duration=1.0, real_sleep=True
        )
        backend = ThreadPoolBackend(2)
        result = backend.run(
            ContractChecker(rs),
            hung,
            time_limit=20.0,
            retry_policy=RetryPolicy(max_attempts=3, timeout=0.15),
        )
        assert len(result.measurements) == 2
        timeouts = [rec for rec in result.failure_log if rec.reason == "timeout"]
        assert len(timeouts) == 2  # each config's first attempt hung
        assert all(rec.action == "retried" for rec in timeouts)
        assert result.jobs_retried == 2
        # The watchdog acted near the deadline, well before the 1 s sleep.
        for rec in timeouts:
            assert 0.15 <= rec.lost < 0.8

    def test_timed_out_result_is_discarded(self):
        """When the hung thread finally returns, its stale result must not
        be double-reported."""
        objective, rs = make_search(1)
        hung = FailureInjectingObjective(
            objective, hang_first=1, hang_duration=0.3, real_sleep=True
        )
        backend = ThreadPoolBackend(2)
        result = backend.run(
            ContractChecker(rs),
            hung,
            time_limit=20.0,
            retry_policy=RetryPolicy(max_attempts=3, timeout=0.1),
        )
        # One live measurement despite the hung attempt eventually finishing.
        assert len(result.measurements) == 1
        assert result.jobs_dispatched == 2

    def test_utilization_figures_agree_after_a_kill(self):
        """Both figures count a killed attempt busy until its deadline — not
        until its hung thread returns, which the result figure used to."""
        objective, rs = make_search(2)
        hung = FailureInjectingObjective(
            objective, hang_first=1, hang_duration=0.6, real_sleep=True
        )
        result = ThreadPoolBackend(2).run(
            rs,
            hung,
            time_limit=20.0,
            telemetry=TelemetryHub.with_metrics(),
            retry_policy=RetryPolicy(max_attempts=3, timeout=0.1),
        )
        assert [rec.reason for rec in result.failure_log] == ["timeout", "timeout"]
        assert result.utilization == pytest.approx(
            result.telemetry.mean_utilization(), rel=1e-9
        )
        assert result.utilization < 0.5


class TestShutdown:
    def test_join_deadline_is_shared_not_per_thread(self):
        """Satellite fix: shutdown used to join each thread with its own
        `time_limit + 5 s` timeout — a pool of stuck workers took
        num_workers x that to return.  All joins now share one deadline."""
        objective, rs = make_search(8)

        class Sleeper(FailureInjectingObjective):
            def train(self, state, config, from_resource, to_resource):
                _time.sleep(30.0)
                return super().train(state, config, from_resource, to_resource)

        sleeper = Sleeper(objective)
        backend = ThreadPoolBackend(4, shutdown_grace=0.5)
        t0 = _time.monotonic()
        result = backend.run(rs, sleeper, time_limit=0.5)
        wall = _time.monotonic() - t0
        # Old behaviour: ~4 x (0.5 + 5) = 22 s.  New: time_limit + grace.
        assert wall < 4.0
        assert result.measurements == []

    def test_finished_search_waits_at_most_the_grace_for_killed_threads(self):
        """Once no live job can report, only ``shutdown_grace`` remains: the
        search below is done at ~0.1 s and used to return at
        ``time_limit + shutdown_grace`` = 3.5 s."""
        objective, rs = make_search(1)
        hung = FailureInjectingObjective(
            objective, hang_first=1, hang_duration=30.0, real_sleep=True
        )
        backend = ThreadPoolBackend(2, shutdown_grace=0.5)
        t0 = _time.monotonic()
        result = backend.run(
            rs, hung, time_limit=3.0, retry_policy=RetryPolicy(max_attempts=3, timeout=0.1)
        )
        wall = _time.monotonic() - t0
        assert len(result.measurements) == 1
        assert wall < 1.5
        assert 0.5 <= result.elapsed < 1.5

    def test_shutdown_grace_validation(self):
        with pytest.raises(ValueError):
            ThreadPoolBackend(2, shutdown_grace=-1.0)
