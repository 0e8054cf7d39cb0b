"""Synchronous Hyperband: loop SHA brackets over early-stopping rates.

Hyperband [Li et al., 2018] hedges over the early-stopping rate by running
one SHA bracket for every rate ``s`` in ``{0, ..., s_max}`` and looping.  Per
the classic budget-balancing rule, bracket ``s`` evaluates

    ``n_s = ceil((s_max + 1) / (num_rungs_s) * eta**(s_max - s))``

configurations so every bracket consumes roughly the same total resource.
The experiments in Appendix A.3 loop through 5 brackets, from the most
aggressive (``s = 0``, ``r = R/256``) to plain random search at scale ``R``
(``s = 4``).

The scheduler exposes :attr:`completed_brackets` so the analysis layer can
implement both incumbent-accounting schemes from Appendix A.2 ("by rung"
vs "by bracket").
"""

from __future__ import annotations

import math

import numpy as np

from ..searchers.base import Searcher
from ..searchspace import SearchSpace
from .bracket import Bracket
from .scheduler import Scheduler
from .sha import SynchronousSHA
from .types import Job

__all__ = ["Hyperband", "hyperband_bracket_sizes"]


def hyperband_bracket_sizes(min_resource: float, max_resource: float, eta: int) -> list[int]:
    """Number of configurations ``n_s`` for each bracket ``s = 0..s_max``."""
    probe = Bracket(min_resource, max_resource, eta, 0)
    s_max = probe.s_max
    sizes = []
    for s in range(s_max + 1):
        num_rungs = s_max - s + 1
        n_s = math.ceil((s_max + 1) / num_rungs * eta ** (s_max - s))
        # Algorithm 1 line 3: at least one configuration must reach R.
        sizes.append(max(n_s, eta ** (s_max - s)))
    return sizes


class Hyperband(Scheduler):
    """Loop synchronous SHA brackets ``s = 0, 1, ..., s_max, 0, 1, ...``.

    Parameters
    ----------
    min_resource, max_resource, eta:
        Geometry shared by every bracket.
    from_checkpoint:
        Whether promotions within a bracket resume from checkpoints.
    max_loops:
        Optional number of full passes over all brackets; ``None`` loops
        forever (the backend's time budget terminates the search).
    searcher:
        Optional shared :class:`~repro.searchers.base.Searcher`: every SHA
        bracket proposes through it and feeds it every result, so the model
        accumulates observations across brackets.
    """

    def __init__(
        self,
        space: SearchSpace,
        rng: np.random.Generator,
        *,
        min_resource: float,
        max_resource: float,
        eta: int = 4,
        from_checkpoint: bool = True,
        max_loops: int | None = None,
        searcher: Searcher | None = None,
    ):
        super().__init__(space, rng, searcher=searcher)
        self.min_resource = min_resource
        self.max_resource = max_resource
        self.eta = eta
        self.from_checkpoint = from_checkpoint
        self.max_loops = max_loops
        self.bracket_sizes = hyperband_bracket_sizes(min_resource, max_resource, eta)
        self.s_max = len(self.bracket_sizes) - 1
        self.completed_brackets = 0
        self._current: SynchronousSHA | None = None
        self._current_s = 0
        self._loops = 0

    # ----------------------------------------------------------------- API

    def next_job(self) -> Job | None:
        if self._current is None:
            if self._no_more_brackets():
                return None
            self._current = self._make_bracket(self._current_s)
        job = self._current.next_job()
        if job is None and self._current.is_done():
            self._advance_bracket()
            return self.next_job()
        return job

    def report(self, job: Job, loss: float) -> None:
        sha = self._owner_of(job)
        sha.report(job, loss)
        if sha.is_done() and sha is self._current:
            self._advance_bracket()

    def on_job_failed(self, job: Job) -> None:
        sha = self._owner_of(job)
        sha.on_job_failed(job)
        if sha.is_done() and sha is self._current:
            self._advance_bracket()

    def on_trial_abandoned(self, job: Job) -> None:
        sha = self._owner_of(job)
        sha.on_trial_abandoned(job)
        if sha.is_done() and sha is self._current:
            self._advance_bracket()

    def is_done(self) -> bool:
        return self._current is None and self._no_more_brackets()

    # ------------------------------------------------------------ snapshots

    def _state_extra(self) -> dict:
        # The inner SHA shares this scheduler's trial table, id allocators,
        # rng and searcher, so only its bracket-local extra is serialized —
        # duplicating the shared tables would desync them on load.
        return {
            "completed_brackets": self.completed_brackets,
            "current_s": self._current_s,
            "loops": self._loops,
            "current": None if self._current is None else self._current._state_extra(),
        }

    def _load_extra(self, extra: dict) -> None:
        self.completed_brackets = int(extra["completed_brackets"])
        self._current_s = int(extra["current_s"])
        self._loops = int(extra["loops"])
        if extra["current"] is None:
            self._current = None
        else:
            self._current = self._make_bracket(self._current_s)
            self._current._load_extra(extra["current"])

    # ------------------------------------------------------------- helpers

    def _no_more_brackets(self) -> bool:
        """The loop cap is reached, or a finite searcher has nothing left.

        A bracket started on an exhausted searcher would be born done, so
        none is: the bracket in flight closes over what was proposed and
        the search ends there.
        """
        capped = self.max_loops is not None and self._loops >= self.max_loops
        return capped or self.searcher_exhausted()

    def _make_bracket(self, s: int) -> SynchronousSHA:
        sha = SynchronousSHA(
            self.space,
            self.rng,
            n=self.bracket_sizes[s],
            min_resource=self.min_resource,
            max_resource=self.max_resource,
            eta=self.eta,
            early_stopping_rate=s,
            grow_brackets=False,
            from_checkpoint=self.from_checkpoint,
            searcher=self.searcher,
        )
        # Share the trial table and id allocators so ids are globally unique
        # and the analysis layer sees one coherent history.
        sha.trials = self.trials
        sha._trial_ids = self._trial_ids
        sha._job_ids = self._job_ids
        sha.telemetry = self.telemetry
        return sha

    def attach_telemetry(self, hub):
        super().attach_telemetry(hub)
        if self._current is not None:
            self._current.telemetry = hub
        return self

    def _advance_bracket(self) -> None:
        if self._current is not None and self._current.is_done():
            self.completed_brackets += 1
        self._current = None
        self._current_s += 1
        if self._current_s > self.s_max:
            self._current_s = 0
            self._loops += 1

    def _owner_of(self, job: Job) -> SynchronousSHA:
        if self._current is None or job.trial_id not in self._current._run_of_trial:
            raise KeyError(f"job {job.job_id} does not belong to the active bracket")
        return self._current
