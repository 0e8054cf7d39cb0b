"""Random search: the no-early-stopping baseline.

Every configuration is trained straight to the maximum resource ``R``.  This
is the embarrassingly parallel baseline the paper's figures label "Random";
it anchors the value of early stopping in Figures 3 and 9.

With a :class:`~repro.searchers.base.Searcher` attached the same scheduler
doubles as the full-budget sequential-model-based baseline family: every
proposal routes through the searcher and every final loss feeds back into
it: ``GPEISearcher`` here is the paper's Vizier stand-in (Golovin et al.
[2017]; the ``"gp"``/``"vizier"`` registry row), ``GridSearcher`` classic
grid search.
"""

from __future__ import annotations

import numpy as np

from ..searchers.base import Searcher
from ..searchspace import SearchSpace
from .scheduler import Scheduler
from .types import Job, TrialStatus

__all__ = ["RandomSearch"]


class RandomSearch(Scheduler):
    """Train uniformly sampled configurations to completion.

    Parameters
    ----------
    max_resource:
        Resource every trial is trained to.
    max_trials:
        Optional cap on the number of configurations; ``None`` keeps sampling
        for as long as the backend runs.
    searcher:
        Optional proposal strategy; ``None`` (the default) samples uniformly.
    """

    def __init__(
        self,
        space: SearchSpace,
        rng: np.random.Generator,
        *,
        max_resource: float,
        max_trials: int | None = None,
        searcher: Searcher | None = None,
    ):
        super().__init__(space, rng, searcher=searcher)
        if max_resource <= 0:
            raise ValueError(f"max_resource must be positive, got {max_resource}")
        self.max_resource = max_resource
        self.max_trials = max_trials

    def next_job(self) -> Job | None:
        if self.max_trials is not None and self.num_trials >= self.max_trials:
            return None
        if self.searcher_exhausted():
            return None
        config, origin = self.propose_config()
        trial = self.new_trial(config, origin=origin)
        return self.make_job(trial, self.max_resource)

    def report(self, job: Job, loss: float) -> None:
        self.note_result(job, loss)
        trial = self.trials[job.trial_id]
        trial.status = TrialStatus.COMPLETED
        if self.searcher is not None:
            self.searcher.on_result(trial, job.resource, loss)
            self.searcher.on_trial_complete(trial, loss)

    def on_job_failed(self, job: Job) -> None:
        super().on_job_failed(job)
        if self.searcher is not None:
            self.searcher.on_trial_error(self.trials[job.trial_id])

    def is_done(self) -> bool:
        capped = self.max_trials is not None and self.num_trials >= self.max_trials
        if not capped and not self.searcher_exhausted():
            return False
        return not any(t.status == TrialStatus.RUNNING for t in self.trials.values())
