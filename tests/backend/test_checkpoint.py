"""Tests for the checkpoint store's resume semantics."""

from __future__ import annotations

import pytest

from repro.backend import CheckpointStore
from repro.core.types import Job
from repro.experiments.toys import toy_objective
from repro.telemetry import EventKind, InMemorySink, TelemetryHub


def job(job_id=0, trial_id=0, resource=3.0, checkpoint=0.0, inherit=None, q=0.4):
    return Job(
        job_id=job_id,
        trial_id=trial_id,
        config={"quality": q},
        resource=resource,
        checkpoint_resource=checkpoint,
        inherit_from=inherit,
    )


@pytest.fixture
def objective():
    return toy_objective(max_resource=9.0, constant=False)


class TestStartingState:
    def test_fresh_start(self, objective):
        store = CheckpointStore()
        resource, state = store.starting_state(job(), objective)
        assert resource == 0.0
        assert state.clean_loss == pytest.approx(0.9)  # quality + 0.5

    def test_resume_from_own_checkpoint(self, objective):
        store = CheckpointStore()
        store.run_job(job(job_id=0, resource=3.0), objective)
        resource, state = store.starting_state(
            job(job_id=1, resource=9.0, checkpoint=3.0), objective
        )
        assert resource == 3.0

    def test_resume_without_checkpoint_raises(self, objective):
        store = CheckpointStore()
        with pytest.raises(KeyError):
            store.starting_state(job(resource=9.0, checkpoint=3.0), objective)

    def test_inherit_requires_donor_checkpoint(self, objective):
        store = CheckpointStore()
        with pytest.raises(KeyError):
            store.prepare(job(inherit=42))


class TestTrainingAndCosts:
    def test_run_job_persists_checkpoint(self, objective):
        store = CheckpointStore()
        loss = store.run_job(job(resource=3.0), objective)
        assert 0 in store
        assert store.start_resource(job(job_id=1, trial_id=1, inherit=0)) == 3.0
        assert loss < 0.9  # the curve decayed

    def test_resume_equals_from_scratch(self, objective):
        """Checkpointed resume reaches the same loss as training straight."""
        store = CheckpointStore()
        store.run_job(job(job_id=0, resource=3.0), objective)
        resumed = store.run_job(job(job_id=1, resource=9.0, checkpoint=3.0), objective)
        direct = objective.evaluate({"quality": 0.4}, 9.0)
        assert resumed == pytest.approx(direct, rel=1e-9)

    def test_job_cost_linear_in_delta(self, objective):
        store = CheckpointStore()
        assert store.job_cost(job(resource=9.0), objective) == 9.0
        store.run_job(job(job_id=0, resource=3.0), objective)
        assert store.job_cost(job(job_id=1, resource=9.0, checkpoint=3.0), objective) == 6.0


class TestInheritanceSnapshots:
    def test_snapshot_frozen_at_prepare(self, objective):
        store = CheckpointStore()
        store.run_job(job(job_id=0, trial_id=0, resource=3.0), objective)
        clone_job = job(job_id=1, trial_id=1, resource=6.0, checkpoint=3.0, inherit=0)
        store.prepare(clone_job)
        # Donor trains further after the snapshot...
        store.run_job(job(job_id=2, trial_id=0, resource=9.0, checkpoint=3.0), objective)
        # ...but the clone resumes from the snapshot at resource 3.
        resource, _ = store.starting_state(clone_job, objective)
        assert resource == 3.0

    def test_snapshot_costing(self, objective):
        store = CheckpointStore()
        store.run_job(job(job_id=0, trial_id=0, resource=3.0), objective)
        clone_job = job(job_id=1, trial_id=1, resource=6.0, inherit=0)
        store.prepare(clone_job)
        assert store.job_cost(clone_job, objective) == 3.0  # 6 - snapshot(3)

    def test_discard_drops_snapshot(self, objective):
        store = CheckpointStore()
        store.run_job(job(job_id=0, trial_id=0, resource=3.0), objective)
        clone_job = job(job_id=1, trial_id=1, resource=6.0, inherit=0)
        store.prepare(clone_job)
        store.discard(clone_job)
        assert clone_job.job_id not in store._snapshots

    def test_inherited_state_is_deep_copy(self, objective):
        store = CheckpointStore()
        store.run_job(job(job_id=0, trial_id=0, resource=3.0), objective)
        clone_job = job(job_id=1, trial_id=1, resource=6.0, inherit=0)
        store.prepare(clone_job)
        _, state = store.starting_state(clone_job, objective)
        state.clean_loss = -1.0
        assert store._store[0][1].clean_loss != -1.0


class _Untouchable:
    """An objective whose every method raises: the store must not call it."""

    def __getattr__(self, name):
        raise AssertionError(f"objective.{name} touched")


def _observed_store(objective):
    """A store with trial 0 trained to resource 3, and the sink watching it."""
    store, sink = CheckpointStore(), InMemorySink()
    store.run_job(job(job_id=0, trial_id=0, resource=3.0), objective)
    store.telemetry = TelemetryHub([sink])
    return store, sink


def _restores(sink):
    return [
        (e.trial_id, e.job_id, e.data)
        for e in sink.events
        if e.kind is EventKind.CHECKPOINT_RESTORED
    ]


#: A job resuming its own checkpoint, and one inheriting trial 0's.
RESUMING = [
    job(job_id=1, trial_id=0, resource=9.0, checkpoint=3.0),
    job(job_id=1, trial_id=1, resource=6.0, inherit=0),
]


class TestPeekAndReplay:
    """The seams the process pool and journal replay stand on."""

    @pytest.mark.parametrize("resuming", RESUMING)
    def test_peek_then_resolve_is_one_state_and_one_event(self, objective, resuming):
        store, sink = _observed_store(objective)
        store.prepare(resuming)
        peeked = store.starting_state(resuming, objective, peek=True)
        assert _restores(sink) == []  # nothing emitted...
        assert store.start_resource(resuming) == 3.0  # ...and nothing consumed
        resolved = store.starting_state(resuming, objective)
        assert resolved[0] == peeked[0] == 3.0
        assert resolved[1] is peeked[1]
        assert len(_restores(sink)) == 1

    def test_peek_from_scratch_builds_the_initial_state(self, objective):
        resource, state = CheckpointStore().starting_state(job(), objective, peek=True)
        assert (resource, state.clean_loss) == (0.0, pytest.approx(0.9))

    @pytest.mark.parametrize("resuming", RESUMING)
    def test_replay_emits_the_event_a_live_completion_emits(self, objective, resuming):
        live, live_sink = _observed_store(objective)
        live.prepare(resuming)
        live.run_job(resuming, objective)
        replayed, replay_sink = _observed_store(objective)
        replayed.prepare(resuming)
        replayed.replay_job(resuming)
        assert _restores(replay_sink) == _restores(live_sink) != []
        # The placeholder rebuilds to the state the skipped training produced.
        rebuilt = replayed.starting_state(
            job(job_id=2, trial_id=resuming.trial_id, resource=9.0, checkpoint=resuming.resource),
            objective,
        )
        assert rebuilt[0] == resuming.resource
        direct, _ = objective.train(
            objective.initial_state(resuming.config), resuming.config, 0.0, resuming.resource
        )
        assert rebuilt[1].clean_loss == direct.clean_loss

    def test_replay_never_touches_the_objective(self):
        store = CheckpointStore()
        store.replay_job(job(resource=3.0))
        assert store.start_resource(job(job_id=1, trial_id=1, inherit=0)) == 3.0

    @pytest.mark.parametrize("starting", [job(job_id=1, trial_id=2, resource=3.0), *RESUMING])
    def test_a_completion_handed_a_worker_result_never_touches_the_objective(
        self, objective, starting
    ):
        store, sink = _observed_store(objective)
        store.prepare(starting)
        loss = store.run_job(starting, _Untouchable(), lambda: ("worker state", 0.25))
        assert loss == 0.25
        assert store._store[starting.trial_id] == (starting.resource, "worker state")
        assert len(_restores(sink)) == (0 if starting.trial_id == 2 else 1)

    def test_a_lost_worker_result_trains_in_process(self, objective):
        store, _ = _observed_store(objective)
        resumed = store.run_job(RESUMING[0], objective, lambda: None)
        assert resumed == pytest.approx(objective.evaluate({"quality": 0.4}, 9.0), rel=1e-9)

    def test_the_restore_is_emitted_before_a_worker_error_surfaces(self, objective):
        store, sink = _observed_store(objective)

        def crashed():
            raise RuntimeError("train raised in the worker")

        with pytest.raises(RuntimeError, match="in the worker"):
            store.run_job(RESUMING[0], objective, crashed)
        assert len(_restores(sink)) == 1
