"""Unit tests for the fault-tolerance layer (repro.backend.faults)."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.backend.faults import (
    FailureInjectingObjective,
    FaultManager,
    InjectedFailure,
    RetryPolicy,
)
from repro.backend.simulation import SimulatedCluster
from repro.core import RandomSearch
from repro.core.types import Job
from repro.experiments.toys import toy_objective, toy_space


def job_for(trial_id: int, job_id: int | None = None) -> Job:
    return Job(
        trial_id=trial_id,
        job_id=job_id if job_id is not None else trial_id,
        config={"quality": 0.5},
        resource=9.0,
    )


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(backoff=-1.0)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_factor=0.5)
        with pytest.raises(ValueError):
            RetryPolicy(timeout_factor=0.0)
        with pytest.raises(ValueError):
            RetryPolicy(timeout=0.0)

    def test_backoff_schedule_is_exponential_and_clamped(self):
        policy = RetryPolicy(backoff=2.0, backoff_factor=3.0, max_backoff=10.0)
        assert policy.backoff_for(1) == 2.0
        assert policy.backoff_for(2) == 6.0
        assert policy.backoff_for(3) == 10.0  # 18 clamped
        assert RetryPolicy(backoff=0.0).backoff_for(5) == 0.0

    def test_sim_deadline(self):
        assert RetryPolicy().sim_deadline(9.0) is None
        assert RetryPolicy(timeout_factor=3.0).sim_deadline(9.0) == 27.0


class TestFaultManager:
    def test_retry_until_budget_then_abandon(self):
        manager = FaultManager(RetryPolicy(max_attempts=3))
        job = job_for(0)
        first = manager.record_failure(job, reason="dropped")
        second = manager.record_failure(job, reason="dropped")
        third = manager.record_failure(job, reason="dropped")
        assert (first.action, second.action, third.action) == ("retry", "retry", "abandon")
        assert third.failures == 3
        assert 0 in manager.abandoned

    def test_success_resets_consecutive_count(self):
        manager = FaultManager(RetryPolicy(max_attempts=2))
        job = job_for(0)
        assert manager.record_failure(job, reason="dropped").retry
        manager.record_success(job)
        # The budget refreshed: the next failure is the first of a new streak.
        assert manager.record_failure(job, reason="dropped").retry

    def test_max_attempts_one_never_retries(self):
        manager = FaultManager(RetryPolicy(max_attempts=1))
        assert manager.record_failure(job_for(0), reason="churn").action == "abandon"

    def test_timeouts_not_retryable_when_disabled(self):
        manager = FaultManager(RetryPolicy(max_attempts=5, retry_timeouts=False))
        assert manager.record_failure(job_for(0), reason="timeout").action == "abandon"
        # Other reasons still retry under the same policy.
        assert manager.record_failure(job_for(1), reason="exception").retry

    def test_budget_shared_across_jobs_of_one_trial(self):
        manager = FaultManager(RetryPolicy(max_attempts=2))
        assert manager.record_failure(job_for(7, job_id=100), reason="dropped").retry
        # A *different* job for the same trial inherits the streak.
        assert manager.record_failure(job_for(7, job_id=101), reason="dropped").action == "abandon"

    def test_time_lost_accumulates(self):
        # The manager only decides; the time lost is kept on BackendResult,
        # summed over every failed attempt whatever its reason.
        result = SimulatedCluster(
            2, drop_probability=0.05, churn_rate=0.05, churn_downtime=1.0, seed=0
        ).run(
            RandomSearch(toy_space(), np.random.default_rng(0), max_resource=9.0),
            toy_objective(),
            time_limit=200.0,
            retry_policy=RetryPolicy(),
        )
        assert {record.reason for record in result.failure_log} == {"dropped", "churn"}
        assert all(record.lost > 0 for record in result.failure_log)
        assert result.time_lost_to_failures == pytest.approx(
            sum(record.lost for record in result.failure_log)
        )

    def test_attempt_number(self):
        manager = FaultManager(RetryPolicy(max_attempts=5))
        job = job_for(0)
        assert manager.attempt_number(job) == 1
        manager.record_failure(job, reason="dropped")
        assert manager.attempt_number(job) == 2


class TestFailureInjectingObjective:
    def test_validation(self):
        inner = toy_objective()
        with pytest.raises(ValueError):
            FailureInjectingObjective(inner, crash_probability=1.5)
        with pytest.raises(ValueError):
            FailureInjectingObjective(inner, crash_first=-1)
        with pytest.raises(ValueError):
            FailureInjectingObjective(inner, hang_duration=0.0)

    def test_crash_first_then_recover(self):
        objective = FailureInjectingObjective(toy_objective(), crash_first=2)
        config = {"quality": 0.3}
        state = objective.initial_state(config)
        for _ in range(2):
            with pytest.raises(InjectedFailure):
                objective.train(state, config, 0.0, 9.0)
        _, loss = objective.train(state, config, 0.0, 9.0)
        assert math.isfinite(loss)
        assert objective.crashes_injected == 2

    def test_crashes_are_per_config(self):
        objective = FailureInjectingObjective(toy_objective(), crash_first=1)
        poisoned, healthy = {"quality": 0.3}, {"quality": 0.7}
        with pytest.raises(InjectedFailure):
            objective.train(objective.initial_state(poisoned), poisoned, 0.0, 9.0)
        # A different config has its own (so far untouched) crash budget...
        with pytest.raises(InjectedFailure):
            objective.train(objective.initial_state(healthy), healthy, 0.0, 9.0)
        # ...and both recover afterwards.
        objective.train(objective.initial_state(poisoned), poisoned, 0.0, 9.0)
        objective.train(objective.initial_state(healthy), healthy, 0.0, 9.0)

    def test_target_predicate_restricts_injection(self):
        objective = FailureInjectingObjective(
            toy_objective(), crash_first=100, target=lambda c: c["quality"] > 0.5
        )
        safe = {"quality": 0.2}
        objective.train(objective.initial_state(safe), safe, 0.0, 9.0)  # no raise
        doomed = {"quality": 0.9}
        with pytest.raises(InjectedFailure):
            objective.train(objective.initial_state(doomed), doomed, 0.0, 9.0)

    def test_simulated_hang_inflates_cost_but_not_nominal_cost(self):
        inner = toy_objective()
        objective = FailureInjectingObjective(inner, hang_first=1, hang_duration=50.0)
        config = {"quality": 0.4}
        clean = inner.cost(config, 0.0, 9.0)
        assert objective.cost(config, 0.0, 9.0) == pytest.approx(clean + 50.0)
        # Second call: the hang budget is spent, cost is clean again.
        assert objective.cost(config, 0.0, 9.0) == pytest.approx(clean)
        # The deadline basis never sees the hang.
        assert objective.nominal_cost(config, 0.0, 9.0) == pytest.approx(clean)
        assert objective.hangs_injected == 1

    def test_real_sleep_hang_blocks_train(self):
        import time

        objective = FailureInjectingObjective(
            toy_objective(), hang_first=1, hang_duration=0.05, real_sleep=True
        )
        config = {"quality": 0.4}
        t0 = time.monotonic()
        objective.train(objective.initial_state(config), config, 0.0, 9.0)
        assert time.monotonic() - t0 >= 0.05
        # real_sleep mode must not also inflate the simulated cost.
        assert objective.cost(config, 0.0, 9.0) == pytest.approx(
            objective.nominal_cost(config, 0.0, 9.0)
        )


class TestDeadlineFieldMatchesTheClock:
    """A deadline the backend's clock cannot honour is refused, not ignored:
    a simulated run used to let ``timeout=`` (seconds) never fire."""

    def _search(self):
        objective = toy_objective(max_resource=9.0)
        hung = FailureInjectingObjective(objective, hang_first=1, hang_duration=100.0)
        rs = RandomSearch(objective.space, np.random.default_rng(0), max_resource=9.0, max_trials=2)
        return rs, hung

    def test_simulated_run_refuses_a_wall_clock_timeout(self):
        from repro.backend import SimulatedCluster

        rs, hung = self._search()
        with pytest.raises(ValueError, match=r"set RetryPolicy\.timeout_factor instead"):
            SimulatedCluster(2, seed=0).run(
                rs, hung, time_limit=500.0, retry_policy=RetryPolicy(timeout=1.0)
            )

    def test_multiplexer_refuses_a_wall_clock_timeout(self):
        from repro.backend import SimulatedCluster
        from repro.study import StudyMultiplexer

        rs, hung = self._search()
        with pytest.raises(ValueError, match=r"RetryPolicy\.timeout_factor"):
            StudyMultiplexer().add(
                rs,
                hung,
                cluster=SimulatedCluster(2, seed=0),
                time_limit=500.0,
                retry_policy=RetryPolicy(timeout=1.0),
            )

    def test_tune_refuses_a_wall_clock_timeout_on_the_simulator(self):
        from repro.tune import tune

        with pytest.raises(ValueError, match=r"RetryPolicy\.timeout_factor"):
            tune(
                lambda config, state, a, b: (state, config["quality"]),
                toy_space(),
                max_resource=9,
                scheduler="random",
                scheduler_kwargs={"max_trials": 2},
                retry_policy=RetryPolicy(timeout=1.0),
            )
