"""Tests for the real thread-pool backend."""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.backend import (
    FailureInjectingObjective,
    RetryPolicy,
    SimulatedCluster,
    ThreadPoolBackend,
)
from repro.backend.checkpoint import CheckpointStore
from repro.core import ASHA, RandomSearch
from repro.experiments.toys import toy_objective
from repro.objectives import mlp_real
from repro.study import Study
from repro.telemetry import EventKind, InMemorySink, TelemetryHub


def test_validation():
    with pytest.raises(ValueError):
        ThreadPoolBackend(0)
    with pytest.raises(ValueError):
        ThreadPoolBackend(2).run(None, None, time_limit=0.0)  # type: ignore[arg-type]


def test_runs_surrogate_search_to_done(one_d_space, rng, toy_obj):
    rs = RandomSearch(one_d_space, rng, max_resource=9.0, max_trials=10)
    backend = ThreadPoolBackend(4)
    result = backend.run(rs, toy_obj, time_limit=30.0)
    assert rs.is_done()
    assert len(result.measurements) == 10


def test_asha_on_real_mlp():
    """End to end: ASHA really trains numpy MLPs in parallel threads."""
    objective = mlp_real.make_objective(max_epochs=8, num_train=96, num_val=64)
    rng = np.random.default_rng(0)
    asha = ASHA(
        objective.space, rng, min_resource=1.0, max_resource=8.0, eta=2, max_trials=12
    )
    backend = ThreadPoolBackend(4)
    result = backend.run(asha, objective, time_limit=120.0)
    assert asha.is_done()
    assert result.measurements
    best = asha.best_trial()
    assert best is not None
    assert best.last_loss < 0.5  # better than coin-flipping on two spirals


def test_objective_exception_reported_as_failure(one_d_space, rng):
    class ExplodingObjective:
        space = one_d_space
        max_resource = 9.0

        def initial_state(self, config):
            return None

        def train(self, state, config, from_resource, to_resource):
            raise RuntimeError("boom")

        def cost(self, config, a, b):
            return b - a

    rs = RandomSearch(one_d_space, rng, max_resource=9.0, max_trials=3)
    backend = ThreadPoolBackend(2)
    result = backend.run(rs, ExplodingObjective(), time_limit=10.0)
    assert len(result.failures) == 3
    assert result.measurements == []


class SlowTrain(FailureInjectingObjective):
    """Each ``train`` call takes 20 ms of wall time."""

    def train(self, state, config, from_resource, to_resource):
        time.sleep(0.02)
        return super().train(state, config, from_resource, to_resource)


@pytest.mark.parametrize("workers", [4, 8])
def test_max_measurements_is_a_cap(workers):
    """The run ends at the cap, as the simulator's does: jobs still training
    then are not recorded (the pool used to wait for them and record 13 with
    4 workers, 17 with 8)."""
    for backend in (SimulatedCluster(workers), ThreadPoolBackend(workers)):
        objective = toy_objective(max_resource=9.0)
        rs = RandomSearch(
            objective.space, np.random.default_rng(0), max_resource=9.0, max_trials=40
        )
        result = backend.run(rs, SlowTrain(objective), time_limit=30.0, max_measurements=10)
        assert len(result.measurements) == 10
        assert sum(len(t.measurements) for t in rs.trials.values()) == 10


def test_simulator_deadline_field_is_refused():
    """``timeout_factor`` prices a deadline in cost-model units the wall clock
    does not have; it used to be ignored."""
    objective = toy_objective(max_resource=9.0)
    rs = RandomSearch(objective.space, np.random.default_rng(0), max_resource=9.0, max_trials=2)
    hung = FailureInjectingObjective(objective, hang_first=1, hang_duration=0.5, real_sleep=True)
    with pytest.raises(ValueError, match=r"set RetryPolicy\.timeout instead"):
        ThreadPoolBackend(2).run(
            rs, hung, time_limit=10.0, retry_policy=RetryPolicy(timeout_factor=0.001)
        )


def make_asha(max_trials: int = 12):
    objective = toy_objective(max_resource=9.0, constant=False)
    asha = ASHA(
        objective.space,
        np.random.default_rng(0),
        min_resource=1.0,
        max_resource=9.0,
        eta=3,
        max_trials=max_trials,
    )
    return asha, objective


def test_checkpoint_restored_is_stamped_with_its_completion():
    """As in the simulator, the completion resolves the resume: each restore
    comes right before its job's ``report``, at the same time."""
    asha, objective = make_asha()
    sink = InMemorySink()
    ThreadPoolBackend(3).run(asha, objective, time_limit=30.0, telemetry=TelemetryHub([sink]))
    events = sink.events
    restores = [i for i, e in enumerate(events) if e.kind is EventKind.CHECKPOINT_RESTORED]
    assert restores
    for i in restores:
        report = events[i + 1]
        assert report.kind is EventKind.REPORT
        assert report.job_id == events[i].job_id
        assert events[i].time == report.time


def test_study_store_and_hub_are_touched_only_by_the_calling_thread(monkeypatch, tmp_path):
    """Workers only train: every study call, checkpoint-store access and
    event write happens on the thread that called ``run``."""
    threads: set[int] = set()

    def on_thread(fn):
        def wrapped(*args, **kwargs):
            threads.add(threading.get_ident())
            return fn(*args, **kwargs)

        return wrapped

    for name in ("resume_point", "put", "seed_from_trials"):
        monkeypatch.setattr(CheckpointStore, name, on_thread(getattr(CheckpointStore, name)))
    for name in ("ask", "tell", "is_done", "on_job_failed", "on_job_requeued", "finalize"):
        monkeypatch.setattr(Study, name, on_thread(getattr(Study, name)))

    class ThreadSink(InMemorySink):
        write = on_thread(InMemorySink.write)

    asha, objective = make_asha()
    flaky = FailureInjectingObjective(objective, crash_first=1)
    sink = ThreadSink()
    study = Study(asha, journal=tmp_path / "threads.journal.jsonl")
    result = ThreadPoolBackend(3).run(
        study,
        flaky,
        time_limit=30.0,
        telemetry=TelemetryHub([sink]),
        retry_policy=RetryPolicy(max_attempts=3),
    )
    study.close()
    assert result.measurements and result.failure_log and sink.events
    assert threads == {threading.get_ident()}
