"""Asynchronous Hyperband: ASHA over one bracket per early-stopping rate.

Section 3.2: "we can asynchronously parallelize Hyperband by either running
multiple brackets of ASHA or looping through brackets of ASHA sequentially as
is done in the original Hyperband. We employ the latter looping scheme."
Both options are here, each :class:`~repro.core.asha.ASHA` over the brackets
``s = 0, 1, ...`` with its own ``next_job`` choosing the bracket:

* :class:`AsyncHyperband` — the looping scheme the paper evaluates.
  Section 4.1 adds the switching rule: brackets are switched "when a budget
  corresponding to a hypothetical bracket of SHA would be depleted."  We
  track the resource dispatched into the current bracket and move to the
  next early-stopping rate once it reaches the total budget a synchronous
  SHA bracket with ``n_s`` configurations would have consumed.
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

from functools import cached_property

import numpy as np

from ..searchers.base import Searcher
from ..searchspace import SearchSpace
from .asha import ASHA
from .bracket import Bracket
from .hyperband import hyperband_bracket_sizes
from .types import Job

__all__ = ["AsyncHyperband", "ParallelAsyncHyperband"]


class AsyncHyperband(ASHA):
    """Loop through ASHA brackets ``s = 0, ..., s_max`` by budget depletion.

    Switching happens mid-flight: the bracket receiving budget changes as
    soon as its SHA-equivalent budget has been dispatched, while earlier
    brackets' jobs are still running.  When the current bracket has no job
    (the searcher ran out and nothing in it is promotable) the others are
    asked in loop order; such jobs count toward no bracket's budget.

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
        Optional shared :class:`~repro.searchers.base.Searcher`: every
        bracket proposes through it and feeds it every result, so the model
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
        if max_resource is None:
            raise ValueError(f"{type(self).__name__} requires a finite max_resource")
        super().__init__(
            space,
            rng,
            min_resource=min_resource,
            max_resource=max_resource,
            eta=eta,
            from_checkpoint=from_checkpoint,
            searcher=searcher,
        )
        sizes = hyperband_bracket_sizes(min_resource, max_resource, eta)
        if brackets is not None:
            if not 1 <= brackets <= len(sizes):
                raise ValueError(f"brackets must be in [1, {len(sizes)}], got {brackets}")
            sizes = sizes[:brackets]
        self.brackets += [Bracket(min_resource, max_resource, eta, s) for s in range(1, len(sizes))]
        #: Total resource a synchronous SHA bracket of ``n_s`` would consume.
        self._budgets = [b.total_budget(n_s) for b, n_s in zip(self.brackets, sizes)]
        #: Resource dispatched into each bracket, what the choosers steer by;
        #: the loop zeroes its current bracket's entry when it moves on.
        self._spent = [0.0] * len(sizes)
        #: Index of the bracket the loop is feeding.
        self._current = 0

    def next_job(self) -> Job | None:
        current, n = self._current, len(self.brackets)
        job = self._get_job(current)
        if job is None:  # out of proposals: the others' promotions, charged to none
            others = ((current + step) % n for step in range(1, n))
            return next(filter(None, map(self._get_job, others)), None)
        self._spent[current] += job.delta_resource
        if self._spent[current] >= self._budgets[current]:
            self._spent[current] = 0.0
            self._current = (current + 1) % n
        return job

    @property
    def current_bracket(self) -> int:
        """Early-stopping rate of the bracket currently receiving budget."""
        return self._current

    # ------------------------------------------------------------ snapshots

    def _state_extra(self) -> dict:
        return {
            "brackets": [bracket.state() for bracket in self.brackets],
            "spent": list(self._spent),
            "current": self._current,
        }

    def _load_extra(self, extra: dict) -> None:
        states = extra["brackets"]
        if len(states) != len(self.brackets):
            raise ValueError(f"snapshot has {len(states)} brackets, not {len(self.brackets)}")
        for bracket, state in zip(self.brackets, states):
            bracket.load(state)
        self._spent = [float(spent) for spent in extra["spent"]]
        self._current = extra["current"]

    # ------------------------------------------------------------ insight

    def rung_sizes(self) -> list[list[int]]:
        """Rung occupancy per bracket (diagnostics)."""
        return [[len(rung) for rung in bracket.rungs] for bracket in self.brackets]


class ParallelAsyncHyperband(AsyncHyperband):
    """Run all ASHA brackets concurrently with budget-proportional routing.

    Only the chooser differs from :class:`AsyncHyperband`; the loop
    position ``current_bracket`` stays 0.
    """

    @cached_property
    def _shares(self) -> list[float]:
        """Each bracket's fraction of the summed SHA-equivalent budgets."""
        total = sum(self._budgets)
        return [budget / total for budget in self._budgets]

    def next_job(self) -> Job | None:
        # Route to the bracket furthest behind its budget share.
        dispatched = sum(self._spent) + 1e-12
        deficits = [spent - share * dispatched for spent, share in zip(self._spent, self._shares)]
        for index in np.argsort(deficits).tolist():
            job = self._get_job(index)
            if job is not None:
                self._spent[index] += job.delta_resource
                return job
        return None

    def budget_split(self) -> list[float]:
        """Fraction of dispatched resource per bracket (→ shares in the limit)."""
        total = sum(self._spent)
        if total == 0:
            return [0.0] * len(self._spent)
        return [s / total for s in self._spent]
