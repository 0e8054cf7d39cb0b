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

One class runs every synchronous baseline; they differ only in their bracket
*plan*, :meth:`SynchronousSHA._bracket`, which gives bracket ``k``'s
``(n, max_resource, early_stopping_rate)`` or ``None`` once the plan is over:

* :class:`SynchronousSHA` — the same bracket, once, or again whenever
  ``grow_brackets`` finds every bracket blocked or done;
* :class:`~repro.core.hyperband.Hyperband` — ``s = 0..s_max`` cycled at a
  fixed ``R``, each bracket sized by the budget-balancing rule;
* :class:`~repro.core.doubling.DoublingSHA` — the doubling trick: bracket
  ``k`` multiplies ``n`` and ``R`` by ``eta**k``.

A growing plan keeps every bracket it started; a sequential one starts the
next bracket only once the current one is done, and keeps only that one.

A scheduler here is a plan, a gate and a chooser.  SHA's gate, the rung
barrier of :class:`_BracketRun`, promotes inside ``report`` when a rung
closes (``rung_completed`` + ``promotion`` events); ASHA's promotes inside
``next_job``, so the two are separate code, not one gate asking its caller.

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
        survivors = []
        if self.rung_index < self.bracket.top_rung_index:
            survivors = rung.top_k(min(self.survivors_target(), len(rung)))
        telemetry = self.owner.telemetry
        if telemetry:
            telemetry.emit(
                EventKind.RUNG_COMPLETED,
                rung=self.rung_index,
                bracket=self.index,
                size=len(rung),
                promoted=len(survivors),
            )
        if not survivors:
            # The top rung closed, or every job in the rung was dropped.
            self.done = True
            self.owner._bracket_closed(self)
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
        false, start the next bracket only once the current one is done: SHA
        runs exactly one bracket and finishes.
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
        #: Brackets the plan has started, and closed (the analysis layer's
        #: "by bracket" incumbent accounting reads the latter per report).
        self.brackets_started = 0
        self.completed_brackets = 0

    # ----------------------------------------------------------------- API

    def next_job(self) -> Job | None:
        job = self._dispatch_from_existing()
        if job is not None or self.searcher_exhausted():
            return job
        if self.grow_brackets:
            may_start = all(r.blocked or r.done for r in self.runs)
        else:
            may_start = all(r.done for r in self.runs)
        if may_start and self._start_run():
            return self._dispatch_from_existing()
        return None

    def report(self, job: Job, loss: float) -> None:
        self.note_result(job, loss)
        trial = self.trials[job.trial_id]
        if self.searcher is not None:
            self.searcher.on_result(trial, job.resource, loss, rung=job.rung)
        run = self.runs[job.bracket]
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
        run = self.runs[job.bracket]
        run.outstanding.discard(job.trial_id)
        run.maybe_advance()

    def is_done(self) -> bool:
        if not all(r.done for r in self.runs):
            return False
        return self.searcher_exhausted() or self._bracket(self.brackets_started) is None

    # ---------------------------------------------------------- the plan

    def _bracket(self, k: int) -> tuple[int, float, int] | None:
        """Bracket ``k``'s ``(n, max_resource, early_stopping_rate)``; ``None`` ends the plan.

        SHA's plan is its one bracket, repeated while ``grow_brackets``.
        """
        if k and not self.grow_brackets:
            return None
        return self.n, self.max_resource, self.early_stopping_rate

    def _bracket_closed(self, run: _BracketRun) -> None:
        """``run`` finished: its top rung closed, or a rung lost every job."""
        self.completed_brackets += 1

    # ------------------------------------------------------------ snapshots

    def _state_extra(self) -> dict:
        return {
            "started": self.brackets_started,
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
        }

    def _load_extra(self, extra: dict) -> None:
        if "runs" not in extra:  # e.g. Hyperband's, when it nested an inner SHA
            raise ValueError(f"{type(self).__name__} state has no bracket runs")
        runs = extra["runs"]
        # Snapshots that predate "started" come from SHA, which keeps every run.
        self.brackets_started = int(extra.get("started", len(runs))) - len(runs)
        self.runs = []
        for run_state in runs:
            self._start_run()
            run = self.runs[-1]
            run.rung_index = int(run_state["rung_index"])
            run.pending = deque(None if e is None else int(e) for e in run_state["pending"])
            run.outstanding = {int(tid) for tid in run_state["outstanding"]}
            run.done = bool(run_state["done"])
            run.bracket.load(run_state["bracket"])
        # Only a done run is ever dropped, so every bracket not held is closed.
        self.completed_brackets = (
            self.brackets_started - len(self.runs) + sum(r.done for r in self.runs)
        )

    # ------------------------------------------------------------- helpers

    def _start_run(self) -> bool:
        """Start the plan's next bracket; ``False`` once the plan is over."""
        geometry = self._bracket(self.brackets_started)
        if geometry is None:
            return False
        n, max_resource, early_stopping_rate = geometry
        if not self.grow_brackets:
            self.runs.clear()
        bracket = Bracket(self.min_resource, max_resource, self.eta, early_stopping_rate)
        self.runs.append(_BracketRun(n, bracket, self, len(self.runs)))
        self.brackets_started += 1
        return True

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
