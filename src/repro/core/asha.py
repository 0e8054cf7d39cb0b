"""ASHA: the Asynchronous Successive Halving Algorithm (Algorithm 2).

ASHA removes synchronous SHA's rung barrier: whenever a worker frees up it
either *promotes* the best not-yet-promoted configuration in the top
``1/eta`` fraction of some rung (scanning from the top rung down), or —
if no promotion is possible — *grows the base rung* with a freshly sampled
configuration.  No worker ever idles waiting for a rung to fill, which is
what makes ASHA robust to stragglers and dropped jobs (Appendix A.1) and
suitable for the large-scale regime (Section 3.2).

Both horizons from Section 3.3 are supported:

* finite (``max_resource=R``): configurations reaching the top rung stop, and
  the number of rungs is fixed;
* infinite (``max_resource=None``): the rung ladder grows without bound as
  configurations keep being promoted.

A scheduler here is a plan, a gate and a chooser: ASHA's are its brackets
(one, or one per ``s`` in :mod:`~repro.core.async_hyperband`), the promotion
:meth:`ASHA._get_job` makes when a worker asks, and ``next_job``, which
picks the bracket that serves the worker.  Synchronous SHA's gate promotes
inside ``report`` instead, when a rung closes (:mod:`repro.core.sha`).
"""

from __future__ import annotations

import numpy as np

from ..searchers.base import Searcher
from ..searchspace import SearchSpace
from ..telemetry import EventKind
from .bracket import Bracket
from .scheduler import Scheduler
from .types import Job, TrialStatus

__all__ = ["ASHA"]


class ASHA(Scheduler):
    """Asynchronous Successive Halving.

    Parameters
    ----------
    space, rng:
        See :class:`~repro.core.scheduler.Scheduler`.
    min_resource:
        ``r``, the minimum resource per configuration.
    max_resource:
        ``R``; pass ``None`` for the infinite horizon.
    eta:
        Reduction factor.
    early_stopping_rate:
        ``s``; the base rung trains to ``r * eta**s``.
    from_checkpoint:
        If true (default, matching iterative training with checkpoints,
        Section 3.2), a promoted configuration resumes from its previous
        resource and pays only for the increment; otherwise it retrains from
        scratch.
    max_trials:
        Optional cap on the number of configurations sampled into the base
        rung; ``None`` (the default) matches the paper, where ASHA keeps
        growing the bottom rung for as long as it runs.
    searcher:
        Optional :class:`~repro.searchers.base.Searcher` proposing base-rung
        configurations and receiving every reported loss — ``KDESearcher``
        yields asynchronous BOHB, ``GPEISearcher`` a MOBSTER-family tuner.
        Default ``None``: uniform random sampling (the paper's ASHA).
    """

    def __init__(
        self,
        space: SearchSpace,
        rng: np.random.Generator,
        *,
        min_resource: float,
        max_resource: float | None,
        eta: int = 4,
        early_stopping_rate: int = 0,
        from_checkpoint: bool = True,
        max_trials: int | None = None,
        searcher: Searcher | None = None,
    ):
        super().__init__(space, rng, searcher=searcher)
        #: The rung ladders; a job's ``bracket`` is its index here.
        self.brackets = [Bracket(min_resource, max_resource, eta, early_stopping_rate)]
        self.from_checkpoint = from_checkpoint
        self.max_trials = max_trials

    # ----------------------------------------------------------------- API

    def next_job(self) -> Job | None:
        return self._get_job(0)  # the chooser: plain ASHA has one bracket

    def _get_job(self, index: int) -> Job | None:
        """Algorithm 2's ``get_job`` on bracket ``index``: promote, else grow rung 0."""
        bracket = self.brackets[index]
        promotion = bracket.find_promotion()
        if promotion is not None:
            trial_id, target_rung = promotion
            bracket.promote(trial_id, target_rung - 1)
            trial = self.trials[trial_id]
            trial.rung = target_rung
            if self.telemetry:
                self.telemetry.emit(
                    EventKind.PROMOTION,
                    trial_id=trial_id,
                    rung=target_rung,
                    from_rung=target_rung - 1,
                )
            return self.make_job(
                trial,
                bracket.rung_resource(target_rung),
                rung=target_rung,
                bracket=index,
                from_checkpoint=self.from_checkpoint,
            )
        if self.max_trials is not None and self.num_trials >= self.max_trials:
            return None
        if self.searcher_exhausted():
            return None
        config, origin = self.propose_config()
        trial = self.new_trial(config, origin=origin)
        return self.make_job(trial, bracket.rung_resource(0), rung=0, bracket=index)

    def report(self, job: Job, loss: float) -> None:
        """File the result into the job's bracket and pause/complete the trial."""
        self.note_result(job, loss)
        trial = self.trials[job.trial_id]
        if self.searcher is not None:
            self.searcher.on_result(trial, job.resource, loss, rung=job.rung)
        bracket = self.brackets[job.bracket]
        bracket.record(job.rung, job.trial_id, loss)
        top = bracket.top_rung_index
        if top is not None and job.rung >= top:
            trial.status = TrialStatus.COMPLETED
            if self.searcher is not None:
                self.searcher.on_trial_complete(trial, loss)
        else:
            trial.status = TrialStatus.PAUSED

    def on_job_failed(self, job: Job) -> None:
        """Dropped base-rung jobs are forgotten; dropped promotions retry.

        A dropped rung-0 job simply never enters the rung — the base rung
        grows with fresh configurations instead, so nothing can dead-lock
        the way a synchronous rung barrier can (Appendix A.1).  A dropped
        *promotion* job returns its configuration to the promotable pool:
        it still sits in the top ``1/eta`` of its rung, and the master
        re-issues the promotion the next time a worker frees up.
        """
        if job.rung > 0:
            self.brackets[job.bracket].rung(job.rung - 1).unmark_promoted(job.trial_id)
            trial = self.trials[job.trial_id]
            trial.status = TrialStatus.PAUSED
            trial.rung = job.rung - 1
        else:
            super().on_job_failed(job)
            if self.searcher is not None:
                self.searcher.on_trial_error(self.trials[job.trial_id])

    def on_trial_abandoned(self, job: Job) -> None:
        """Quarantine a poison trial: terminal, unlike :meth:`on_job_failed`.

        A quarantined promotion is deliberately *not* returned to the
        promotable pool (its promoted mark in the rung below stays set), so
        the master never re-issues it — otherwise a configuration that
        crashes every attempt would be re-promoted forever.
        """
        trial = self.trials[job.trial_id]
        trial.status = TrialStatus.FAILED
        if self.searcher is not None:
            self.searcher.on_trial_error(trial)

    def is_done(self) -> bool:
        """Only a trial-capped (or searcher-exhausted) ASHA finishes on its own.

        Backends poll ``is_done`` immediately before ``next_job`` for every
        free worker; the promotability check below reuses the bracket's
        cached promotion scan (invalidated only when a rung mutates), so the
        pair costs one rung scan at most — not two per poll.
        """
        capped = self.max_trials is not None and self.num_trials >= self.max_trials
        if not capped and not self.searcher_exhausted():
            return False
        if any(bracket.find_promotion() is not None for bracket in self.brackets):
            return False
        return not any(t.status == TrialStatus.RUNNING for t in self.trials.values())

    # ------------------------------------------------------------ snapshots

    def _state_extra(self) -> dict:
        return {"bracket": self.brackets[0].state()}

    def _load_extra(self, extra: dict) -> None:
        self.brackets[0].load(extra["bracket"])

    # ------------------------------------------------------------ insight

    def rung_sizes(self) -> list[int]:
        """Number of results currently filed in each rung (diagnostics)."""
        return [len(r) for r in self.brackets[0].rungs]
