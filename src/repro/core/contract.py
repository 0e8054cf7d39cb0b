"""Protocol contract checker for schedulers (testing utility).

Wrap any scheduler in :class:`ContractChecker` and it asserts the
scheduler/backend protocol invariants on every interaction:

* every reported/failed job was previously dispatched and not yet resolved;
* a trial never trains backwards (job target >= its checkpoint);
* at most one in-flight job per trial (no scheduler in this library ever
  double-books a configuration);
* ``is_done()`` never flips back to ``False`` once ``True``;
* requeued jobs (retry policies) are genuinely in flight, and abandoned
  trials are never requeued or dispatched again.

When the wrapped scheduler has a :class:`~repro.searchers.base.Searcher`
attached, the searcher protocol is audited too:

* every reported loss is forwarded to ``on_result`` exactly once;
* ``suggest`` is never called after the searcher reports ``is_done()``.

Used by the integration suite, and handy when developing new schedulers.
"""

from __future__ import annotations

from ..searchers.base import Searcher
from .scheduler import Scheduler
from .types import Job

__all__ = ["ContractChecker", "ContractViolation"]


class ContractViolation(AssertionError):
    """A scheduler broke the dispatch/report protocol."""


class ContractChecker(Scheduler):
    """Transparent scheduler wrapper asserting protocol invariants."""

    def __init__(self, inner: Scheduler):
        # Alias the inner scheduler's state; do not call super().__init__.
        self.inner = inner
        self.space = inner.space
        self.rng = inner.rng
        self.trials = inner.trials
        self.telemetry = inner.telemetry
        self._outstanding: dict[int, Job] = {}
        self._in_flight_trials: set[int] = set()
        self._abandoned_trials: set[int] = set()
        self._was_done = False
        self.jobs_seen = 0

    def attach_telemetry(self, hub):
        """Forward the hub to the wrapped scheduler (events come from it)."""
        self.telemetry = hub
        self.inner.attach_telemetry(hub)
        return self

    # ----------------------------------------------------------------- API

    @property
    def searcher(self) -> Searcher | None:
        return self.inner.searcher

    @property
    def completed_brackets(self) -> int | None:
        return self.inner.completed_brackets

    def next_job(self) -> Job | None:
        searcher = self.inner.searcher
        if searcher is not None:
            was_exhausted = searcher.is_done()
            suggestions_before = searcher.num_suggestions
        job = self.inner.next_job()
        if searcher is not None and was_exhausted:
            if searcher.num_suggestions != suggestions_before:
                raise ContractViolation(
                    f"{type(self.inner).__name__} called suggest() on an "
                    f"exhausted {type(searcher).__name__} (is_done() was True)"
                )
        if job is None:
            return None
        self.jobs_seen += 1
        if job.job_id in self._outstanding:
            raise ContractViolation(f"job id {job.job_id} dispatched twice")
        if job.trial_id in self._in_flight_trials:
            raise ContractViolation(
                f"trial {job.trial_id} double-booked (already has an in-flight job)"
            )
        if job.trial_id in self._abandoned_trials:
            raise ContractViolation(
                f"trial {job.trial_id} dispatched again after being abandoned"
            )
        if job.resource < job.checkpoint_resource:
            raise ContractViolation(
                f"job {job.job_id} trains backwards: "
                f"{job.checkpoint_resource} -> {job.resource}"
            )
        if job.resource <= 0:
            raise ContractViolation(f"job {job.job_id} has non-positive target resource")
        self._outstanding[job.job_id] = job
        self._in_flight_trials.add(job.trial_id)
        return job

    def report(self, job: Job, loss: float) -> None:
        self._resolve(job)
        searcher = self.inner.searcher
        if searcher is not None:
            results_before = searcher.num_results
        self.inner.report(job, loss)
        if searcher is not None:
            forwarded = searcher.num_results - results_before
            if forwarded != 1:
                raise ContractViolation(
                    f"{type(self.inner).__name__} forwarded the loss of job "
                    f"{job.job_id} to on_result {forwarded} times (must be exactly 1)"
                )

    def on_job_failed(self, job: Job) -> None:
        self._resolve(job)
        self.inner.on_job_failed(job)

    def on_job_requeued(self, job: Job) -> None:
        # The job stays in flight: the backend will re-dispatch it verbatim,
        # so it is NOT resolved here — the eventual report/failure is.
        if job.job_id not in self._outstanding:
            raise ContractViolation(
                f"job {job.job_id} requeued but never dispatched (or already resolved)"
            )
        if job.trial_id in self._abandoned_trials:
            raise ContractViolation(
                f"trial {job.trial_id} requeued after being abandoned"
            )
        self.inner.on_job_requeued(job)

    def on_trial_abandoned(self, job: Job) -> None:
        self._resolve(job)
        self._abandoned_trials.add(job.trial_id)
        self.inner.on_trial_abandoned(job)

    def is_done(self) -> bool:
        done = self.inner.is_done()
        if self._was_done and not done:
            raise ContractViolation("is_done() flipped from True back to False")
        self._was_done = self._was_done or done
        return done

    def best_trial(self):
        return self.inner.best_trial()

    @property
    def num_trials(self) -> int:
        return self.inner.num_trials

    def state_dict(self) -> dict:
        """Delegate to the wrapped scheduler.

        The checker's own audit tables (outstanding jobs, in-flight trials,
        monotonic-done latch) describe the *run*, not the algorithm; a
        restored study starts a fresh audit over the resumed interactions.
        """
        return self.inner.state_dict()

    def load_state(self, state: dict) -> None:
        self.inner.load_state(state)
        self._outstanding.clear()
        self._in_flight_trials.clear()
        self._abandoned_trials.clear()
        self._was_done = False

    # ------------------------------------------------------------- helpers

    def _resolve(self, job: Job) -> None:
        if job.job_id not in self._outstanding:
            raise ContractViolation(f"job {job.job_id} resolved but never dispatched")
        del self._outstanding[job.job_id]
        self._in_flight_trials.discard(job.trial_id)

    @property
    def outstanding_jobs(self) -> int:
        return len(self._outstanding)
