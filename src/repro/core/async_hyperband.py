"""Asynchronous Hyperband: ASHA brackets over every early-stopping rate.

Section 3.2: "we can asynchronously parallelize Hyperband by either running
multiple brackets of ASHA or looping through brackets of ASHA sequentially as
is done in the original Hyperband. We employ the latter looping scheme."
Both options are here, as two routing rules over one set of ASHA ladders:

* :class:`AsyncHyperband` — the looping scheme the paper evaluates.
  Section 4.1 adds the switching rule: brackets are switched "when a budget
  corresponding to a hypothetical bracket of SHA would be depleted."  We
  track the resource dispatched into the current ASHA bracket and move to
  the next early-stopping rate once it reaches the total budget a
  synchronous SHA bracket with ``n_s`` configurations would have consumed.
* :class:`ParallelAsyncHyperband` — the first option, kept so the two can be
  compared: every bracket runs *concurrently*, and each new job is routed to
  the bracket with the least dispatched resource relative to its
  SHA-equivalent budget share.  The long-run budget split is the looping
  variant's, while every bracket makes progress at all times — the natural
  choice when worker counts are large.

Unlike synchronous Hyperband there is no barrier in either: results for
every bracket keep arriving and keep triggering promotions within their own
rung ladders.
"""

from __future__ import annotations

import dataclasses
from functools import cached_property

import numpy as np

from ..searchers.base import Searcher
from ..searchspace import SearchSpace
from .asha import ASHA
from .bracket import Bracket
from .hyperband import hyperband_bracket_sizes
from .scheduler import Scheduler
from .types import Job

__all__ = ["AsyncHyperband", "ParallelAsyncHyperband"]


class _ASHALadders(Scheduler):
    """One ASHA ladder per early-stopping rate ``s = 0, 1, ...``; no routing.

    Owns everything the two asynchronous Hyperbands share: the ladders (on
    one trial table and one id space), their SHA-equivalent budgets, hub
    propagation, and delivery of results and failures to the ladder that
    dispatched the trial.  Subclasses add :meth:`next_job` — which ladder a
    free worker is sent to.

    Parameters
    ----------
    min_resource, max_resource, eta:
        Geometry shared by every bracket (finite horizon required).
    brackets:
        How many early-stopping rates to run, starting at ``s = 0``;
        defaults to all ``s_max + 1`` rates.  Section 4.3 loops
        ``s = 0, 1, 2, 3``.
    from_checkpoint:
        Whether promotions resume from checkpoints.
    searcher:
        Optional shared :class:`~repro.searchers.base.Searcher`: every ASHA
        ladder proposes through it and feeds it every result, so the model
        pools observations across early-stopping rates.
    """

    def __init__(
        self,
        space: SearchSpace,
        rng: np.random.Generator,
        *,
        min_resource: float,
        max_resource: float,
        eta: int = 4,
        brackets: int | None = None,
        from_checkpoint: bool = True,
        searcher: Searcher | None = None,
    ):
        super().__init__(space, rng, searcher=searcher)
        if max_resource is None:
            raise ValueError(f"{type(self).__name__} requires a finite max_resource")
        sizes = hyperband_bracket_sizes(min_resource, max_resource, eta)
        if brackets is not None:
            if not 1 <= brackets <= len(sizes):
                raise ValueError(f"brackets must be in [1, {len(sizes)}], got {brackets}")
            sizes = sizes[:brackets]
        self.eta = eta
        self._ashas: list[ASHA] = []
        #: Total resource a synchronous SHA bracket of ``n_s`` would consume.
        self._budgets: list[float] = []
        for s, n_s in enumerate(sizes):
            asha = ASHA(
                space,
                rng,
                min_resource=min_resource,
                max_resource=max_resource,
                eta=eta,
                early_stopping_rate=s,
                from_checkpoint=from_checkpoint,
                searcher=searcher,
            )
            # Share the trial table / id allocators for globally unique ids.
            asha.trials = self.trials
            asha._trial_ids = self._trial_ids
            asha._job_ids = self._job_ids
            self._ashas.append(asha)
            self._budgets.append(Bracket(min_resource, max_resource, eta, s).total_budget(n_s))
        #: Resource dispatched into each ladder; what the routing rules steer by.
        self._spent = [0.0] * len(self._ashas)
        self._bracket_of_trial: dict[int, int] = {}

    # ----------------------------------------------------------------- API

    def attach_telemetry(self, hub) -> Scheduler:
        """Propagate the hub to every inner ASHA ladder (shared trial table)."""
        super().attach_telemetry(hub)
        for asha in self._ashas:
            asha.telemetry = hub
        return self

    def _ask(self, index: int) -> Job | None:
        """Ladder ``index``'s next job, charged to it and tagged with its owner."""
        job = self._ashas[index].next_job()
        if job is None:  # trial-capped or searcher-exhausted ladder
            return None
        owner = self._bracket_of_trial.setdefault(job.trial_id, index)
        self._spent[index] += job.delta_resource
        return dataclasses.replace(job, bracket=owner)

    def report(self, job: Job, loss: float) -> None:
        self._ashas[self._bracket_of_trial[job.trial_id]].report(job, loss)

    def on_job_failed(self, job: Job) -> None:
        self._ashas[self._bracket_of_trial[job.trial_id]].on_job_failed(job)

    def on_trial_abandoned(self, job: Job) -> None:
        self._ashas[self._bracket_of_trial[job.trial_id]].on_trial_abandoned(job)

    # ------------------------------------------------------------ insight

    def rung_sizes(self) -> list[list[int]]:
        """Rung occupancy per bracket (diagnostics)."""
        return [a.rung_sizes() for a in self._ashas]


class AsyncHyperband(_ASHALadders):
    """Loop through ASHA brackets ``s = 0, ..., s_max`` by budget depletion.

    Switching happens mid-flight: the bracket receiving budget changes as
    soon as its SHA-equivalent budget has been dispatched, while earlier
    brackets' jobs are still running.
    """

    #: Index of the ladder being fed; its ``_spent`` entry counts from the
    #: last switch and is zeroed on the way out.
    _current = 0

    def next_job(self) -> Job | None:
        job = self._ask(self._current)
        if job is not None and self._spent[self._current] >= self._budgets[self._current]:
            self._spent[self._current] = 0.0
            self._current = (self._current + 1) % len(self._ashas)
        return job

    @property
    def current_bracket(self) -> int:
        """Early-stopping rate of the bracket currently receiving budget."""
        return self._current


class ParallelAsyncHyperband(_ASHALadders):
    """Run all ASHA brackets concurrently with budget-proportional routing."""

    @cached_property
    def _shares(self) -> list[float]:
        """Each bracket's fraction of the summed SHA-equivalent budgets."""
        total = sum(self._budgets)
        return [budget / total for budget in self._budgets]

    def next_job(self) -> Job | None:
        # Route to the bracket furthest behind its budget share.
        dispatched = sum(self._spent) + 1e-12
        deficits = [spent - share * dispatched for spent, share in zip(self._spent, self._shares)]
        for index in np.argsort(deficits):
            job = self._ask(int(index))
            if job is not None:
                return job
        return None

    def budget_split(self) -> list[float]:
        """Fraction of dispatched resource per bracket (→ shares in the limit)."""
        total = sum(self._spent)
        if total == 0:
            return [0.0] * len(self._spent)
        return [s / total for s in self._spent]
