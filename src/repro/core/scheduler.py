"""The pull-based scheduler interface every tuning algorithm implements.

The interface mirrors ASHA's structure (Algorithm 2): an execution backend
repeatedly asks the scheduler for work via :meth:`Scheduler.next_job` whenever
a worker is free, and feeds results back via :meth:`Scheduler.report`.
Synchronous algorithms (SHA, Hyperband, BOHB, PBT with synchronised rounds)
return ``None`` from ``next_job`` while they are blocked waiting for
outstanding jobs — which leaves workers idle and is precisely the straggler
bottleneck Section 3.1 analyses.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any

import numpy as np

from ..searchers.base import Searcher
from ..searchspace import SearchSpace
from ..telemetry import NULL_HUB, EventKind
from .serialization import config_state, rng_state, set_rng_state, trial_from_state, trial_state
from .types import Config, IdAllocator, Job, Measurement, Trial, TrialStatus

__all__ = ["Scheduler"]


class Scheduler(ABC):
    """Base class for all tuning algorithms.

    Subclasses implement :meth:`next_job` and :meth:`report`.  The base class
    owns the trial table and id allocation so that all algorithms expose a
    uniform view of their history to trackers and tests.

    Parameters
    ----------
    space:
        The search space configurations are drawn from.
    rng:
        Source of randomness; every stochastic decision flows through it.
    searcher:
        Optional :class:`~repro.searchers.base.Searcher` owning config
        proposal.  ``None`` (the default) means uniform random sampling
        straight from the space — byte-identical to the pre-searcher
        behaviour.  Schedulers that support a searcher route every proposal
        through :meth:`propose_config` and every reported loss into
        :meth:`~repro.searchers.base.Searcher.on_result`.
    """

    def __init__(
        self,
        space: SearchSpace,
        rng: np.random.Generator,
        *,
        searcher: Searcher | None = None,
    ):
        self.space = space
        self.rng = rng
        self.searcher = searcher
        if searcher is not None:
            searcher.setup(space)
        self.trials: dict[int, Trial] = {}
        self._trial_ids = IdAllocator()
        self._job_ids = IdAllocator()
        #: Lifecycle-event hub; the falsy ``NULL_HUB`` by default, so every
        #: emission site costs one branch when telemetry is off.
        self.telemetry: Any = NULL_HUB

    #: Synchronous brackets closed so far, read after every report for the
    #: "by bracket" incumbent accounting; ``None`` where brackets never close.
    completed_brackets: int | None = None

    def attach_telemetry(self, hub) -> "Scheduler":
        """Attach a :class:`~repro.telemetry.TelemetryHub` and return ``self``.

        Wrappers (``ContractChecker``, ``StoppingWrapper``) override this to
        pass the hub on to the scheduler they wrap.
        """
        self.telemetry = hub
        return self

    # ------------------------------------------------------------------ API

    @abstractmethod
    def next_job(self) -> Job | None:
        """Return work for a free worker, or ``None`` if blocked / finished.

        Returning ``None`` does not mean the search is over — synchronous
        schedulers return ``None`` while waiting on stragglers.  Use
        :meth:`is_done` to distinguish.
        """

    @abstractmethod
    def report(self, job: Job, loss: float) -> None:
        """Ingest the validation loss of a completed job."""

    def next_job_batch(self, k: int) -> list[Job]:
        """Up to ``k`` jobs: :meth:`next_job` ``k`` times, trailing ``None`` dropped.

        A short batch means the scheduler is (currently) blocked or
        finished.  This loop is the only implementation — no scheduler
        overrides it — because the master asks once per freed worker
        (Algorithm 2), so ``k = 1`` is the traffic that matters.
        """
        jobs: list[Job] = []
        for _ in range(k):
            job = self.next_job()
            if job is None:
                break
            jobs.append(job)
        return jobs

    def report_batch(self, results: list[tuple[Job, float]]) -> None:
        """Ingest completed-job losses in order: :meth:`report` per pair."""
        for job, loss in results:
            self.report(job, loss)

    def on_job_failed(self, job: Job) -> None:
        """Handle a dropped or crashed job.

        Default policy: mark the trial failed and forget it.  Subclasses
        override to e.g. re-queue the work (synchronous SHA must, or a rung
        never completes).
        """
        trial = self.trials[job.trial_id]
        trial.status = TrialStatus.FAILED

    def on_job_requeued(self, job: Job) -> None:
        """A failed job is about to be re-dispatched by the backend.

        Called instead of :meth:`on_job_failed` when a
        :class:`~repro.backend.faults.RetryPolicy` grants a retry: the very
        same job (same target resource, rung and bracket) will run again, so
        the trial re-enters the rung it left rather than forfeiting.  The
        trial stays ``RUNNING`` and any rung bookkeeping (synchronous SHA's
        outstanding set, ASHA's promoted marks) remains exactly as it was at
        dispatch — which is why the default is a no-op.  Subclasses that
        key state off individual dispatches must override.
        """

    def on_trial_abandoned(self, job: Job) -> None:
        """A trial exhausted its retry budget: quarantine it for good.

        Unlike :meth:`on_job_failed` — which some schedulers answer by
        making the work eligible again (ASHA re-queues dropped promotions) —
        this is terminal: the trial must never be dispatched again.  The
        default forfeits the job through :meth:`on_job_failed` (so rung
        barriers still close) and then forces the trial's status to
        ``FAILED``.
        """
        self.on_job_failed(job)
        self.trials[job.trial_id].status = TrialStatus.FAILED

    def is_done(self) -> bool:
        """Whether the scheduler will never produce another job.

        Anytime algorithms (ASHA, random search) never finish on their own;
        fixed-budget algorithms (SHA) finish when their bracket completes.
        """
        return False

    # ------------------------------------------------------------ snapshots

    def state_dict(self) -> dict[str, Any]:
        """Serialize the complete scheduler state as JSON-safe plain data.

        The base class captures what every scheduler owns — rng stream, id
        cursors, trial table, searcher state — and delegates algorithm
        internals (rungs, brackets, pending queues) to :meth:`_state_extra`.
        Restoring into a *freshly constructed* scheduler of the same type and
        constructor arguments via :meth:`load_state` must resume the exact
        decision sequence; :class:`~repro.study.Study` snapshots are built on
        this contract.
        """
        return {
            "type": type(self).__name__,
            "rng": rng_state(self.rng),
            "trial_ids": self._trial_ids.state(),
            "job_ids": self._job_ids.state(),
            "trials": {str(tid): trial_state(t) for tid, t in self.trials.items()},
            "searcher": None if self.searcher is None else self.searcher.state_dict(),
            "extra": self._state_extra(),
        }

    def load_state(self, state: dict[str, Any]) -> None:
        """Restore :meth:`state_dict` output into this (fresh) scheduler.

        The trial table is mutated in place rather than rebound — the
        wrappers ``ContractChecker`` and ``StoppingWrapper`` alias it.
        """
        expected = state["type"]
        if expected != type(self).__name__:
            raise ValueError(f"state is for scheduler {expected!r}, not {type(self).__name__!r}")
        set_rng_state(self.rng, state["rng"])
        self._trial_ids.load(state["trial_ids"])
        self._job_ids.load(state["job_ids"])
        self.trials.clear()
        self.trials.update(
            {int(tid): trial_from_state(ts) for tid, ts in state["trials"].items()}
        )
        if self.searcher is not None:
            if state["searcher"] is None:
                raise ValueError("state has no searcher but scheduler was built with one")
            self.searcher.load_state(state["searcher"])
        elif state["searcher"] is not None:
            raise ValueError("state carries a searcher but scheduler was built without one")
        self._load_extra(state["extra"])

    def _state_extra(self) -> dict[str, Any]:
        """Algorithm-specific state beyond the base tables (JSON-safe).

        Schedulers that support snapshot/resume implement this together with
        :meth:`_load_extra`; the base raises so unsupported algorithms fail
        loudly at snapshot time instead of silently resuming corrupt.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not support state serialization"
        )

    def _load_extra(self, extra: dict[str, Any]) -> None:
        """Restore :meth:`_state_extra` output; counterpart hook."""
        raise NotImplementedError(
            f"{type(self).__name__} does not support state serialization"
        )

    # -------------------------------------------------------------- helpers

    def note_result(self, job: Job, loss: float) -> None:
        """Record a completed job's measurement on its trial.

        Every ``report`` implementation calls this first, so schedulers stay
        correct even when driven directly (without a backend recording
        measurements).  The measurement's ``time`` field is left at zero —
        backend clocks live in the backend's own result log.
        """
        trial = self.trials[job.trial_id]
        trial.record(Measurement(trial_id=job.trial_id, resource=job.resource, loss=loss))

    def propose_config(self) -> tuple[Config, str | None]:
        """Draw the next configuration and its proposal origin.

        Routes through the attached searcher when one is set, falling back
        to uniform sampling from the space (the pre-searcher default, kept
        rng-identical).  The origin is ``None`` unless the searcher records
        one; pass it to :meth:`new_trial` so telemetry can attribute the
        proposal.
        """
        if self.searcher is not None:
            config = self.searcher.suggest(self.rng)
            return config, self.searcher.origin
        return self.space.sample(self.rng), None

    def searcher_exhausted(self) -> bool:
        """Whether the attached searcher has nothing further to propose."""
        return self.searcher is not None and self.searcher.is_done()

    def new_trial(self, config: Config, *, origin: str | None = None) -> Trial:
        """Register a new trial for ``config`` and return it.

        ``origin`` (``"model_based"`` / ``"random_fallback"`` / ``"grid"``)
        is stamped onto the ``trial_started`` event when provided, so the
        metrics layer can report model-hit rates; omitted otherwise to keep
        legacy streams byte-identical.
        """
        trial = Trial(trial_id=self._trial_ids.next(), config=config)
        self.trials[trial.trial_id] = trial
        if self.telemetry:
            extra = {"origin": origin} if origin is not None else {}
            # The canonical form, not a fresh copy (for a plain config, the
            # trial's own dict — see config_state's read-only contract): the
            # bytes every sink emits are unchanged, canonical encoders sort
            # keys and unwrap numpy scalars either way.
            self.telemetry.emit(
                EventKind.TRIAL_STARTED,
                trial_id=trial.trial_id,
                config=config_state(config),
                **extra,
            )
        return trial

    def make_job(
        self,
        trial: Trial,
        resource: float,
        *,
        rung: int = 0,
        bracket: int = 0,
        from_checkpoint: bool = True,
    ) -> Job:
        """Build a job training ``trial`` up to cumulative ``resource``."""
        checkpoint = trial.resource if from_checkpoint else 0.0
        trial.status = TrialStatus.RUNNING
        return Job(
            job_id=self._job_ids.next(),
            trial_id=trial.trial_id,
            config=trial.config,
            resource=resource,
            checkpoint_resource=checkpoint,
            rung=rung,
            bracket=bracket,
        )

    @property
    def num_trials(self) -> int:
        return len(self.trials)

    def best_trial(self) -> Trial | None:
        """Trial with the lowest observed loss at its highest resource.

        This is ASHA's intermediate-loss incumbent rule (Section 3.3): the
        current best is judged by latest observed loss, not only by fully
        trained configurations.
        """
        measured = [
            t
            for t in self.trials.values()
            if t.measurements and t.measurements[-1].loss == t.measurements[-1].loss
        ]
        if not measured:
            # Everything measured so far diverged (NaN); surface one anyway.
            measured = [t for t in self.trials.values() if t.measurements]
        if not measured:
            return None
        return min(measured, key=lambda t: t.measurements[-1].loss)
