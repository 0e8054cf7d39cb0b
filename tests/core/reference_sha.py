"""Algorithm 2 of Li et al. (MLSys 2020, §3) as the paper states it: the decision oracle.

ASHA's ``get_job``: for ``k = ⌊log_η(R/r)⌋ − s − 1, ..., 1, 0``, take the
top ``⌊|rung k| / η⌋`` of rung ``k`` and promote one of them that has not
been promoted yet; if no rung has one, grow the bottom rung with a new
configuration.  The rungs here are plain dicts, and every decision sorts the
whole rung again.  There is no heap, no cached scan and no change callback,
so none of the system's shortcuts can hide a wrong decision.
``test_reference_sha.py`` drives the real schedulers and this reference
through the same histories and requires the same job at every ask.

The paper leaves some points open; the system's answers are the named
switches of :class:`Deviations`, and each names the docstring that states
it.  The asynchronous Hyperbands (§3.2) are this ladder repeated over the
early-stopping rates ``s = 0, 1, ...`` with a rule for which ladder serves
the next worker (the *chooser*): ``"loop"`` is Section 4.1's switch on a
depleted SHA-equivalent budget, ``"least_deficit"`` runs every ladder at
once.  Algorithm 1's schedulers (SHA, Hyperband, the doubling SHA, BOHB)
are not here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

#: A job as the oracle compares it: ``(trial, rung, resource, bracket)``.
JobKey = tuple[int, int, float, int]


@dataclass(frozen=True)
class Deviations:
    """What the system does where Algorithm 2 is silent, one switch each."""

    #: ``ASHA.on_job_failed``: a dropped promotion job returns its trial to
    #: the promotable pool of the rung below; a dropped rung-0 job is
    #: forgotten.  Off: the promoted mark stays and the trial is lost.
    dropped_promotion_returns: bool = True
    #: ``ASHA.on_trial_abandoned``: an abandoned (quarantined) promotion
    #: keeps its promoted mark, so it is never issued again.
    abandoned_promotion_returns: bool = False
    #: ``rung._sort_loss`` and the ``Rung`` docstring: NaN sorts after every
    #: number, ties break by trial id, and the best promotable trial is the
    #: one promoted.  Off: raw ``(loss, trial)`` order, which NaN leaves
    #: undefined.
    nan_last: bool = True
    #: ``AsyncHyperband.next_job``: when the current ladder has no job (its
    #: searcher ran out and nothing in it is promotable), the other ladders
    #: are asked in loop order; those jobs are charged to no budget.  Off:
    #: the loop answers ``None`` although other ladders still hold work.
    exhausted_ladder_defers: bool = True
    #: ``ParallelAsyncHyperband.next_job``: ladders with equal deficits are
    #: tried in ``np.argsort``'s default order, which is not a stable sort;
    #: where numpy sorts with SIMD kernels (AVX-512), tied ladders come out
    #: in another order than elsewhere.  On: lowest index first.
    deficit_ties_to_lowest: bool = False


def s_max_of(r: float, big_r: float, eta: int) -> int:
    """``⌊log_η(R/r)⌋``, counted rather than logged (r and R are exact here)."""
    s_max = 0
    while r * eta ** (s_max + 1) <= big_r:
        s_max += 1
    return s_max


class ReferenceLadder:
    """One bracket of Algorithm 2: rung ``k`` trains to ``r · η^(k+s)``."""

    def __init__(self, r: float, big_r: float | None, eta: int, s: int):
        self.r, self.eta, self.s = r, eta, s
        #: Index of the top rung, or ``None`` in the infinite horizon.
        self.top = None if big_r is None else s_max_of(r, big_r, eta) - s
        self.losses: list[dict[int, float]] = []
        self.promoted: list[set[int]] = []

    def resource(self, k: int) -> float:
        return self.r * self.eta ** (k + self.s)

    def rung(self, k: int) -> tuple[dict[int, float], set[int]]:
        while len(self.losses) <= k:
            self.losses.append({})
            self.promoted.append(set())
        return self.losses[k], self.promoted[k]

    def promotion(self, key) -> tuple[int, int] | None:
        """``(trial, k + 1)`` for the highest rung ``k`` with a candidate."""
        highest = len(self.losses) - 1 if self.top is None else self.top - 1
        for k in range(highest, -1, -1):
            losses, promoted = self.rung(k)
            ranked = sorted(losses, key=lambda trial: key(losses[trial], trial))
            for trial in ranked[: len(losses) // self.eta]:
                if trial not in promoted:
                    return trial, k + 1
        return None

    def table(self) -> list[tuple[list[tuple[int, str]], list[int]]]:
        return rung_table(self.losses, self.promoted)


def rung_table(losses, promoted) -> list[tuple[list[tuple[int, str]], list[int]]]:
    """Rungs as comparable data: ``repr`` makes NaN equal to NaN, and
    trailing empty rungs (not yet materialised on one side) are dropped."""
    rows = [
        (sorted((trial, repr(loss)) for trial, loss in rung.items()), sorted(marks))
        for rung, marks in zip(losses, promoted)
    ]
    while rows and rows[-1] == ([], []):
        rows.pop()
    return rows


class ReferenceASHA:
    """Algorithm 2 over one or more ladders, with a chooser between them.

    ``proposals`` caps the configurations a finite searcher can propose
    (``None``: sampling never runs out); ``max_trials`` is ASHA's own cap.
    """

    def __init__(
        self,
        ladders: list[ReferenceLadder],
        *,
        chooser: str = "single",
        budgets: list[float] | None = None,
        max_trials: int | None = None,
        proposals: int | None = None,
        from_checkpoint: bool = True,
        deviations: Deviations = Deviations(),
    ):
        self.ladders = ladders
        self.chooser = chooser
        self.budgets = budgets
        self.max_trials = max_trials
        self.proposals = proposals
        self.from_checkpoint = from_checkpoint
        self.deviations = deviations
        self.reached: dict[int, float] = {}  # trial -> cumulative resource trained
        self.running: set[int] = set()
        self.spent = [0.0] * len(ladders)
        self.current = 0

    def key(self, loss: float, trial: int) -> tuple[float, int]:
        if self.deviations.nan_last and loss != loss:
            return (math.inf, trial)
        return (loss, trial)

    # --------------------------------------------------------------- get_job

    def _get_job(self, b: int) -> tuple[JobKey, float] | None:
        """Algorithm 2's ``get_job`` on ladder ``b``: the job and its cost."""
        ladder = self.ladders[b]
        promotion = ladder.promotion(self.key)
        if promotion is not None:
            trial, k = promotion
            ladder.rung(k - 1)[1].add(trial)
            checkpoint = self.reached[trial] if self.from_checkpoint else 0.0
        else:
            trials = len(self.reached)
            if self.max_trials is not None and trials >= self.max_trials:
                return None
            if self.proposals is not None and trials >= self.proposals:
                return None
            trial, k, checkpoint = trials, 0, 0.0
            self.reached[trial] = 0.0
        self.running.add(trial)
        resource = ladder.resource(k)
        return (trial, k, resource, b), resource - checkpoint

    def next_job(self) -> JobKey | None:
        n = len(self.ladders)
        if self.chooser == "single":
            found = self._get_job(0)
            return None if found is None else found[0]
        if self.chooser == "loop":
            b = self.current
            found = self._get_job(b)
            if found is not None:
                self.spent[b] += found[1]
                if self.spent[b] >= self.budgets[b]:
                    self.spent[b] = 0.0
                    self.current = (b + 1) % n
                return found[0]
            if self.deviations.exhausted_ladder_defers:
                for step in range(1, n):
                    found = self._get_job((b + step) % n)
                    if found is not None:
                        return found[0]
            return None
        # "least_deficit": the ladder furthest behind its budget share.
        total = sum(self.budgets)
        dispatched = sum(self.spent) + 1e-12
        deficits = [
            spent - budget / total * dispatched for spent, budget in zip(self.spent, self.budgets)
        ]
        if self.deviations.deficit_ties_to_lowest:
            order = sorted(range(n), key=deficits.__getitem__)
        else:
            order = [int(b) for b in np.argsort(deficits)]
        for b in order:
            found = self._get_job(b)
            if found is not None:
                self.spent[b] += found[1]
                return found[0]
        return None

    # --------------------------------------------------------------- results

    def report(self, job: JobKey, loss: float) -> None:
        trial, k, resource, b = job
        self.ladders[b].rung(k)[0][trial] = loss
        self.reached[trial] = max(self.reached[trial], resource)
        self.running.discard(trial)

    def fail(self, job: JobKey) -> None:
        self._drop(job, self.deviations.dropped_promotion_returns)

    def abandon(self, job: JobKey) -> None:
        self._drop(job, self.deviations.abandoned_promotion_returns)

    def _drop(self, job: JobKey, returns: bool) -> None:
        trial, k, _, b = job
        self.running.discard(trial)
        if k > 0 and returns:
            self.ladders[b].rung(k - 1)[1].discard(trial)

    def is_done(self) -> bool:
        """Capped or out of proposals, nothing promotable and nothing running."""
        trials = len(self.reached)
        capped = self.max_trials is not None and trials >= self.max_trials
        exhausted = self.proposals is not None and trials >= self.proposals
        if not (capped or exhausted) or self.running:
            return False
        return all(ladder.promotion(self.key) is None for ladder in self.ladders)

    def tables(self) -> list:
        return [ladder.table() for ladder in self.ladders]


def hyperband_sizes(r: float, big_r: float, eta: int) -> list[int]:
    """Hyperband's ``n_s = ⌈(s_max + 1) / (s_max − s + 1) · η^(s_max − s)⌉``."""
    s_max = s_max_of(r, big_r, eta)
    return [
        math.ceil((s_max + 1) / (s_max - s + 1) * eta ** (s_max - s)) for s in range(s_max + 1)
    ]


def sha_budget(ladder: ReferenceLadder, n: int) -> float:
    """Resource synchronous SHA spends on ``n`` configurations (Figure 1)."""
    total = 0.0
    for k in range(ladder.top + 1):
        total += (n // ladder.eta**k) * ladder.resource(k)
    return total


def async_hyperband(
    r: float, big_r: float, eta: int, brackets: int | None, chooser: str, **kwargs
) -> ReferenceASHA:
    """ASHA ladders ``s = 0, ..., brackets − 1`` with SHA-equivalent budgets."""
    sizes = hyperband_sizes(r, big_r, eta)[:brackets]
    ladders = [ReferenceLadder(r, big_r, eta, s) for s in range(len(sizes))]
    budgets = [sha_budget(ladder, n) for ladder, n in zip(ladders, sizes)]
    return ReferenceASHA(ladders, chooser=chooser, budgets=budgets, **kwargs)
