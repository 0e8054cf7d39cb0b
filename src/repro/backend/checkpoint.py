"""Checkpoint store: per-trial training state shared by the backends.

Section 3.2 notes that "when training is iterative, ASHA can return an
answer in time(R), since incrementally trained configurations can be
checkpointed and resumed."  The store maps a trial id to its latest
``(resource, state)`` pair and implements the three resume semantics jobs
can request:

* resume from the trial's own checkpoint (``job.checkpoint_resource > 0``);
* start from scratch (``checkpoint_resource == 0``);
* inherit another trial's checkpoint (``job.inherit_from`` — PBT's exploit).
"""

from __future__ import annotations

import copy
from typing import Any, Callable

from ..core.types import Job
from ..objectives.base import Objective
from ..telemetry import NULL_HUB, EventKind

__all__ = ["CheckpointStore"]


class _ReplayedState:
    """Placeholder checkpoint for a trial whose training was skipped.

    Journal replay (:meth:`repro.study.Study.resume`) takes losses from the
    journal instead of re-training, so the store holds just enough here —
    the config and the resource trained to — for
    :meth:`CheckpointStore.materialize` to rebuild the real state lazily if
    a post-journal job ever resumes from it.
    """

    __slots__ = ("config", "resource")

    def __init__(self, config: Any, resource: float):
        self.config = config
        self.resource = resource

    def __repr__(self) -> str:
        return f"_ReplayedState(resource={self.resource!r})"


class CheckpointStore:
    """In-memory map of trial id -> (resource, opaque training state)."""

    def __init__(self) -> None:
        self._store: dict[int, tuple[float, Any]] = {}
        # Donor-state snapshots taken at dispatch time, keyed by job id: PBT
        # copies weights when the exploit job launches, and the donor may
        # train further before the clone's job completes.
        self._snapshots: dict[int, tuple[float, Any]] = {}
        #: Lifecycle-event hub; backends attach theirs so checkpoint resumes
        #: are observable (``checkpoint_restored`` events).
        self.telemetry = NULL_HUB

    def __contains__(self, trial_id: int) -> bool:
        return trial_id in self._store

    def __len__(self) -> int:
        return len(self._store)

    def prepare(self, job: Job) -> None:
        """Snapshot donor state at dispatch (call before the job starts).

        Only meaningful for inheriting jobs; a no-op otherwise.  Backends
        call this when the job is handed to a worker so that the clone copies
        the donor's weights *as of the exploit decision*, not as of whenever
        the clone's training happens to finish.
        """
        if job.inherit_from is not None:
            self._snapshots[job.job_id] = self._donor_snapshot(job)

    def _donor_snapshot(self, job: Job) -> tuple[float, Any]:
        if job.inherit_from not in self._store:
            raise KeyError(
                f"job {job.job_id} inherits from trial {job.inherit_from}, "
                "which has no checkpoint"
            )
        resource, state = self._store[job.inherit_from]
        return resource, copy.deepcopy(state)

    def resume_point(self, job: Job, *, consume: bool) -> tuple[float, Any] | None:
        """The ``(resource, state)`` checkpoint ``job`` resumes, ``None`` from scratch.

        ``consume`` is the call that resolves the start: it uses up the
        dispatch snapshot (or snapshots the donor now) and emits
        ``checkpoint_restored``.  Without it this is a pure read, for work
        that starts training ahead of the completion.  Either way the point
        becomes training state through :meth:`build_state`, which reads
        nothing of the store and so may run on another thread.
        """
        inherited = job.inherit_from
        if inherited is not None:
            snapshots = self._snapshots
            point = snapshots.pop(job.job_id, None) if consume else snapshots.get(job.job_id)
            if point is None:
                point = self._donor_snapshot(job)
        elif job.checkpoint_resource > 0:
            if job.trial_id not in self._store:
                raise KeyError(
                    f"job {job.job_id} resumes trial {job.trial_id} at resource "
                    f"{job.checkpoint_resource}, but no checkpoint exists"
                )
            point = self._store[job.trial_id]
        else:
            return None
        if consume and self.telemetry:
            extra = {} if inherited is None else {"inherited_from": inherited}
            self.telemetry.emit(
                EventKind.CHECKPOINT_RESTORED,
                trial_id=job.trial_id,
                job_id=job.job_id,
                resource=point[0],
                **extra,
            )
        return point

    def starting_state(
        self, job: Job, objective: Objective, *, peek: bool = False
    ) -> tuple[float, Any]:
        """Resolve the (resource, state) a job should begin training from.

        Emits a ``checkpoint_restored`` telemetry event whenever the job
        resumes existing state (its own checkpoint or an inherited one)
        rather than initialising from scratch.  ``peek=True`` returns the
        same pair with nothing emitted and nothing consumed — what a backend
        that trains speculatively from dispatch ships to its worker, the
        completion still being the call that resolves.
        """
        return self.build_state(self.resume_point(job, consume=not peek), job, objective)

    @staticmethod
    def build_state(
        point: tuple[float, Any] | None, job: Job, objective: Objective
    ) -> tuple[float, Any]:
        """The ``(resource, state)`` training starts from, given :meth:`resume_point`."""
        if point is None:
            return 0.0, objective.initial_state(job.config)
        return point[0], CheckpointStore.materialize(point[1], objective)

    @staticmethod
    def materialize(state: Any, objective: Objective) -> Any:
        """Turn a replay placeholder into real training state (identity otherwise).

        Objectives are deterministic functions of ``(config, resource)`` —
        the checkpoint-equivalence contract — so retraining from scratch up
        to the placeholder's resource reproduces exactly the state the
        skipped training would have produced.
        """
        if not isinstance(state, _ReplayedState):
            return state
        real = objective.initial_state(state.config)
        if state.resource > 0:
            real, _ = objective.train(real, state.config, 0.0, state.resource)
        return real

    def replay_job(self, job: Job) -> None:
        """Complete a job whose loss came from a journal: no objective call.

        Resolves the start exactly as a live completion does (same
        ``checkpoint_restored`` event, dispatch snapshot used up), then
        installs a :class:`_ReplayedState` placeholder as the trial's
        checkpoint, keeping the telemetry stream byte-identical to a live
        run's.
        """
        self.resume_point(job, consume=True)
        self._store[job.trial_id] = (job.resource, _ReplayedState(job.config, job.resource))

    def seed_from_trials(self, trials: dict[int, Any]) -> None:
        """Install placeholder checkpoints for already-measured trials.

        A restored study's scheduler remembers its trials, but a fresh
        backend's store is empty — jobs promoting those trials would find no
        checkpoint.  Placeholders at each trial's furthest measured resource
        let :meth:`materialize` rebuild the real state lazily on first use.
        A no-op for fresh studies (no trials yet) and for replay-mode resume
        (which re-executes from t=0 and installs placeholders as it goes).
        """
        for trial in trials.values():
            if trial.measurements and trial.trial_id not in self._store:
                resource = max(m.resource for m in trial.measurements)
                self._store[trial.trial_id] = (resource, _ReplayedState(trial.config, resource))

    def put(self, trial_id: int, resource: float, state: Any) -> None:
        """Persist ``trial_id``'s checkpoint: trained to ``resource``, ``state``."""
        if resource < 0:
            raise ValueError(f"checkpoint resource must be >= 0, got {resource}")
        self._store[trial_id] = (resource, state)

    def run_job(
        self,
        job: Job,
        objective: Objective,
        trained: Callable[[], tuple[Any, float] | None] | None = None,
    ) -> float:
        """Execute a job's training increment and persist the new checkpoint.

        Returns the validation loss at ``job.resource``.  ``trained`` stands
        in for the ``train`` call when the increment ran elsewhere from
        ``starting_state(job, objective, peek=True)``: it returns that
        ``(state, loss)``, ``None`` if the result was lost (train here after
        all), or raises what ``train`` raised.  It is called after the start
        is resolved, so the event order is the in-process one either way,
        and with a result in hand the objective is never touched.
        """
        point = self.resume_point(job, consume=True)
        result = trained() if trained is not None else None
        if result is None:
            from_resource, state = self.build_state(point, job, objective)
            result = objective.train(state, job.config, from_resource, job.resource)
        state, loss = result
        self.put(job.trial_id, job.resource, state)
        return loss

    def start_resource(self, job: Job) -> float:
        """The resource a job's training would begin from right now."""
        if job.inherit_from is not None:
            if job.job_id in self._snapshots:
                return self._snapshots[job.job_id][0]
            if job.inherit_from in self._store:
                return self._store[job.inherit_from][0]
        return job.checkpoint_resource

    def job_cost(self, job: Job, objective: Objective) -> float:
        """Simulated duration of a job under the objective's cost model."""
        return objective.cost(job.config, self.start_resource(job), job.resource)

    def discard(self, job: Job) -> None:
        """Drop any dispatch snapshot for a job that will never complete."""
        self._snapshots.pop(job.job_id, None)
