"""Synchronous Successive Halving (Algorithm 1) and its parallelisation.

SHA evaluates ``n`` configurations at the base rung, keeps the top ``1/eta``,
multiplies the per-configuration budget by ``eta``, and repeats until the
maximum resource ``R`` is reached.  Promotions are *synchronous*: every job
in a rung must complete before any configuration advances, which makes the
algorithm sensitive to stragglers and dropped jobs (Section 3.1).

For distributed execution we implement the parallelisation scheme the paper
attributes to Falkner et al. [2018]: the surviving configurations of each
rung are trained in parallel, and **a new bracket is started whenever no job
is available in existing brackets** (``grow_brackets=True``).  With one
worker and ``grow_brackets=False`` this degrades exactly to sequential SHA.

Configurations are sampled lazily, one at a time, as base-rung jobs are
dispatched.  This is observationally identical to sampling ``n`` up front
(line 4 of Algorithm 1) for random sampling, and it is what lets BOHB be
this class proposing from a :class:`~repro.searchers.kde.KDESearcher`.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from ..searchers.base import Searcher
from ..searchspace import SearchSpace
from ..telemetry import EventKind
from .bracket import Bracket
from .scheduler import Scheduler
from .types import Job, TrialStatus

__all__ = ["SynchronousSHA"]


class _BracketRun:
    """One in-flight synchronous bracket: rung-by-rung elimination state."""

    def __init__(self, n: int, bracket: Bracket, owner: "SynchronousSHA", index: int):
        self.n = n
        self.bracket = bracket
        self.owner = owner  # for telemetry; rung barriers are events too
        self.index = index
        self.rung_index = 0
        # Trials not yet dispatched at the current rung.  Rung 0 entries are
        # placeholders (None) that the scheduler replaces with fresh samples.
        self.pending: deque[int | None] = deque([None] * n)
        self.outstanding: set[int] = set()
        self.done = False

    @property
    def blocked(self) -> bool:
        """True while the rung barrier is waiting on outstanding jobs."""
        return not self.pending and bool(self.outstanding) and not self.done

    def survivors_target(self) -> int:
        """``n_{i+1} = floor(n * eta**-(i+1))`` from the original ``n``."""
        return self.n // self.bracket.eta ** (self.rung_index + 1)

    def maybe_advance(self) -> None:
        """Close the rung if complete: promote the top ``1/eta`` survivors."""
        if self.pending or self.outstanding or self.done:
            return
        rung = self.bracket.rung(self.rung_index)
        telemetry = self.owner.telemetry
        if self.rung_index == self.bracket.top_rung_index:
            self.done = True
            if telemetry:
                telemetry.emit(
                    EventKind.RUNG_COMPLETED,
                    rung=self.rung_index,
                    bracket=self.index,
                    size=len(rung),
                    promoted=0,
                )
            return
        k = min(self.survivors_target(), len(rung))
        survivors = rung.top_k(k)
        if telemetry:
            telemetry.emit(
                EventKind.RUNG_COMPLETED,
                rung=self.rung_index,
                bracket=self.index,
                size=len(rung),
                promoted=len(survivors),
            )
        if not survivors:
            # Every job in the rung was dropped; nothing can advance.
            self.done = True
            return
        for trial_id in survivors:
            rung.mark_promoted(trial_id)
            if telemetry:
                telemetry.emit(
                    EventKind.PROMOTION,
                    trial_id=trial_id,
                    rung=self.rung_index + 1,
                    bracket=self.index,
                    from_rung=self.rung_index,
                )
        self.rung_index += 1
        self.pending.extend(survivors)


class SynchronousSHA(Scheduler):
    """Synchronous SHA with optional bracket growth for parallel settings.

    Parameters
    ----------
    n:
        Number of configurations per bracket (Algorithm 1's ``n``); must be at
        least ``eta**(s_max - s)`` so one configuration reaches ``R``.
    min_resource, max_resource, eta, early_stopping_rate:
        Bracket geometry; see :class:`~repro.core.bracket.Bracket`.  The
        finite horizon is required (``max_resource`` must be set).
    grow_brackets:
        If true, start a new bracket whenever no job is available in existing
        brackets (the paper's "synchronous SHA" in distributed settings).  If
        false, run exactly one bracket and finish.
    from_checkpoint:
        Whether promoted configurations resume from their checkpoint (pay the
        resource increment) or retrain from scratch.
    searcher:
        Optional :class:`~repro.searchers.base.Searcher` proposing base-rung
        configurations and receiving every rung result — ``KDESearcher``
        here *is* BOHB.  Default ``None``: uniform random sampling.
    """

    def __init__(
        self,
        space: SearchSpace,
        rng: np.random.Generator,
        *,
        n: int,
        min_resource: float,
        max_resource: float,
        eta: int = 4,
        early_stopping_rate: int = 0,
        grow_brackets: bool = False,
        from_checkpoint: bool = True,
        searcher: Searcher | None = None,
    ):
        super().__init__(space, rng, searcher=searcher)
        if max_resource is None:
            raise ValueError("synchronous SHA requires a finite max_resource")
        probe = Bracket(min_resource, max_resource, eta, early_stopping_rate)
        required = eta ** (probe.s_max - early_stopping_rate)
        if n < required:
            raise ValueError(
                f"n={n} too small: need n >= eta**(s_max - s) = {required} so that "
                "at least one configuration is allocated R (Algorithm 1, line 3)"
            )
        self.n = n
        self.min_resource = min_resource
        self.max_resource = max_resource
        self.eta = eta
        self.early_stopping_rate = early_stopping_rate
        self.grow_brackets = grow_brackets
        self.from_checkpoint = from_checkpoint
        self.runs: list[_BracketRun] = []
        self._run_of_trial: dict[int, _BracketRun] = {}

    # ----------------------------------------------------------------- API

    def next_job(self) -> Job | None:
        job = self._dispatch_from_existing()
        if job is not None:
            return job
        if self.searcher_exhausted():
            return None
        if not self.runs or (self.grow_brackets and all(r.blocked or r.done for r in self.runs)):
            if self.runs and all(r.done for r in self.runs) and not self.grow_brackets:
                return None
            self._start_run()
            return self._dispatch_from_existing()
        return None

    def report(self, job: Job, loss: float) -> None:
        self.note_result(job, loss)
        trial = self.trials[job.trial_id]
        if self.searcher is not None:
            self.searcher.on_result(trial, job.resource, loss, rung=job.rung)
        run = self._run_of_trial[job.trial_id]
        run.outstanding.discard(job.trial_id)
        run.bracket.record(job.rung, job.trial_id, loss)
        if job.rung == run.bracket.top_rung_index:
            trial.status = TrialStatus.COMPLETED
            if self.searcher is not None:
                self.searcher.on_trial_complete(trial, loss)
        else:
            trial.status = TrialStatus.PAUSED
        run.maybe_advance()

    def on_job_failed(self, job: Job) -> None:
        """Drop the configuration from its rung so the barrier can still close.

        The configuration's result never enters the rung, so it cannot be
        promoted; the rung completes over the surviving jobs.  This is the
        lenient interpretation — the damage dropped jobs do to synchronous
        SHA (Appendix A.1) happens even so, because top performers are lost
        and rung completion is delayed by the remaining stragglers.
        """
        super().on_job_failed(job)
        if self.searcher is not None:
            self.searcher.on_trial_error(self.trials[job.trial_id])
        run = self._run_of_trial[job.trial_id]
        run.outstanding.discard(job.trial_id)
        run.maybe_advance()

    def is_done(self) -> bool:
        if not self.runs:
            return self.searcher_exhausted()
        if not all(r.done for r in self.runs):
            return False
        return not self.grow_brackets or self.searcher_exhausted()

    # ------------------------------------------------------------ snapshots

    def _state_extra(self) -> dict:
        return {
            "runs": [
                {
                    "rung_index": run.rung_index,
                    "pending": list(run.pending),
                    "outstanding": sorted(run.outstanding),
                    "done": run.done,
                    "bracket": run.bracket.state(),
                }
                for run in self.runs
            ],
            "run_of_trial": {str(tid): run.index for tid, run in self._run_of_trial.items()},
        }

    def _load_extra(self, extra: dict) -> None:
        self.runs = []
        for run_state in extra["runs"]:
            self._start_run()
            run = self.runs[-1]
            run.rung_index = int(run_state["rung_index"])
            run.pending = deque(None if e is None else int(e) for e in run_state["pending"])
            run.outstanding = {int(tid) for tid in run_state["outstanding"]}
            run.done = bool(run_state["done"])
            run.bracket.load(run_state["bracket"])
        self._run_of_trial = {
            int(tid): self.runs[index] for tid, index in extra["run_of_trial"].items()
        }

    # ------------------------------------------------------------- helpers

    def _start_run(self) -> None:
        bracket = Bracket(self.min_resource, self.max_resource, self.eta, self.early_stopping_rate)
        self.runs.append(_BracketRun(self.n, bracket, self, len(self.runs)))

    def _dispatch_from_existing(self) -> Job | None:
        for run_index, run in enumerate(self.runs):
            if not run.pending:
                continue
            entry = run.pending.popleft()
            if entry is None:
                if self.searcher_exhausted():
                    # No more proposals: drop this bracket's unfilled base-rung
                    # slots and let the rung barrier close over what exists.
                    run.pending = deque(e for e in run.pending if e is not None)
                    run.maybe_advance()
                    continue
                config, origin = self.propose_config()
                trial = self.new_trial(config, origin=origin)
                self._run_of_trial[trial.trial_id] = run
            else:
                trial = self.trials[entry]
            run.outstanding.add(trial.trial_id)
            trial.rung = run.rung_index
            trial.bracket = run_index
            return self.make_job(
                trial,
                run.bracket.rung_resource(run.rung_index),
                rung=run.rung_index,
                bracket=run_index,
                from_checkpoint=self.from_checkpoint,
            )
        return None

    # ------------------------------------------------------------ insight

    def completed_brackets(self) -> int:
        return sum(1 for r in self.runs if r.done)
