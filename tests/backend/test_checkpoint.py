"""Tests for the checkpoint store's resume semantics."""

from __future__ import annotations

import pytest

from repro.backend import CheckpointStore
from repro.core.types import Job
from repro.experiments.toys import toy_objective


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
