"""Standalone early-stopping rules (extension features).

The paper's conclusion points at "incorporating meta-learning to inform
early-stopping" and compares against Vizier's (buggy, hence omitted)
performance-curve rule.  This module provides two classic rules that can be
composed with any scheduler through :class:`StoppingWrapper`:

* :class:`MedianStoppingRule` — stop a trial whose running-average loss at
  resource ``r`` is worse than the median of other trials' running averages
  at the same resource (the rule Vizier ships; Golovin et al. 2017, §3.2).
* :class:`CurveExtrapolationRule` — fit a power-law ``a + b * r**-c`` to the
  trial's observed curve and stop when the extrapolated loss at ``R`` is
  worse than the current best observed final loss (in the spirit of Domhan
  et al. 2015, with least-squares point estimates instead of MCMC).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections import defaultdict

import numpy as np

from .scheduler import Scheduler
from .types import Job, TrialStatus

__all__ = ["StoppingRule", "MedianStoppingRule", "CurveExtrapolationRule", "StoppingWrapper"]


class StoppingRule(ABC):
    """Decides whether a trial should be terminated early."""

    @abstractmethod
    def observe(self, trial_id: int, resource: float, loss: float) -> None:
        """Record a measurement."""

    @abstractmethod
    def should_stop(self, trial_id: int) -> bool:
        """Whether the trial should not receive further resource."""


class MedianStoppingRule(StoppingRule):
    """Stop a trial below the median of running averages at equal resource.

    Parameters
    ----------
    grace_resource:
        Trials are never stopped before consuming this much resource.
    min_peers:
        Minimum number of other trials measured at a comparable resource
        before the rule activates.
    """

    def __init__(self, grace_resource: float = 0.0, min_peers: int = 5):
        self.grace_resource = grace_resource
        self.min_peers = min_peers
        self._history: dict[int, list[tuple[float, float]]] = defaultdict(list)

    def observe(self, trial_id: int, resource: float, loss: float) -> None:
        self._history[trial_id].append((resource, loss))

    def running_average(self, trial_id: int, up_to: float) -> float | None:
        points = [loss for r, loss in self._history[trial_id] if r <= up_to]
        finite = [loss for loss in points if np.isfinite(loss)]
        if not points:
            return None
        if not finite:
            return np.inf
        return float(np.mean(finite))

    def should_stop(self, trial_id: int) -> bool:
        history = self._history.get(trial_id)
        if not history:
            return False
        resource = max(r for r, _ in history)
        if resource < self.grace_resource:
            return False
        mine = self.running_average(trial_id, resource)
        peers = []
        for other_id in self._history:
            if other_id == trial_id:
                continue
            avg = self.running_average(other_id, resource)
            if avg is not None:
                peers.append(avg)
        if len(peers) < self.min_peers:
            return False
        return mine is not None and mine > float(np.median(peers))


class CurveExtrapolationRule(StoppingRule):
    """Stop when the extrapolated final loss cannot beat the incumbent.

    Fits ``loss(r) = a + b * r**-c`` by robust least squares once a trial has
    ``min_points`` measurements, extrapolates to ``max_resource``, and stops
    the trial if the prediction exceeds ``margin`` times the best *final*
    loss observed anywhere so far.
    """

    def __init__(self, max_resource: float, min_points: int = 4, margin: float = 1.0):
        if max_resource <= 0:
            raise ValueError("max_resource must be positive")
        self.max_resource = max_resource
        self.min_points = min_points
        self.margin = margin
        self._history: dict[int, list[tuple[float, float]]] = defaultdict(list)
        self._best_final = np.inf

    def observe(self, trial_id: int, resource: float, loss: float) -> None:
        self._history[trial_id].append((resource, loss))
        if resource >= self.max_resource and np.isfinite(loss):
            self._best_final = min(self._best_final, loss)

    def extrapolate(self, trial_id: int) -> float | None:
        """Predicted loss at ``max_resource``, or ``None`` if unfittable."""
        from scipy.optimize import least_squares  # not under the try: a broken scipy must raise

        points = [
            (r, loss) for r, loss in self._history.get(trial_id, []) if np.isfinite(loss) and r > 0
        ]
        if len(points) < self.min_points:
            return None
        r = np.array([p[0] for p in points])
        losses = np.array([p[1] for p in points])

        def residuals(theta):
            a, b, c = theta
            return a + b * r ** (-np.exp(c)) - losses

        start = np.array(
            [losses.min(), max(losses[0] - losses.min(), 1e-3), np.log(0.5)]
        )
        try:
            sol = least_squares(residuals, start, loss="soft_l1", max_nfev=200)
        except Exception:
            return None
        a, b, c = sol.x
        return float(a + b * self.max_resource ** (-np.exp(c)))

    def should_stop(self, trial_id: int) -> bool:
        if not np.isfinite(self._best_final):
            return False
        predicted = self.extrapolate(trial_id)
        if predicted is None:
            return False
        return predicted > self.margin * self._best_final


class StoppingWrapper(Scheduler):
    """Compose a stopping rule with any inner scheduler.

    Jobs flow through unchanged; results are shown to the rule first, and
    when the rule votes to stop a trial the wrapper reports an *infinite*
    loss to the inner scheduler instead — which any loss-ranking scheduler
    (every one in this library) interprets as "never promote / never exploit
    this configuration", terminating it without special cases.
    """

    def __init__(self, inner: Scheduler, rule: StoppingRule):
        # Deliberately do NOT call super().__init__: this wrapper aliases the
        # inner scheduler's state so trackers see a single trial table.
        self.inner = inner
        self.rule = rule
        self.space = inner.space
        self.rng = inner.rng
        self.trials = inner.trials
        self.telemetry = inner.telemetry
        self.stopped_early: set[int] = set()

    def attach_telemetry(self, hub):
        """Forward the hub to the wrapped scheduler (events come from it)."""
        self.telemetry = hub
        self.inner.attach_telemetry(hub)
        return self

    @property
    def searcher(self):
        """The wrapped scheduler's searcher (contract-checker visibility)."""
        return self.inner.searcher

    @property
    def completed_brackets(self) -> int | None:
        return self.inner.completed_brackets

    def next_job(self) -> Job | None:
        return self.inner.next_job()

    def report(self, job: Job, loss: float) -> None:
        self.rule.observe(job.trial_id, job.resource, loss)
        if self.rule.should_stop(job.trial_id):
            self.stopped_early.add(job.trial_id)
            self.inner.report(job, np.inf)
            self.trials[job.trial_id].status = TrialStatus.STOPPED
        else:
            self.inner.report(job, loss)

    def on_job_failed(self, job: Job) -> None:
        self.inner.on_job_failed(job)

    def on_job_requeued(self, job: Job) -> None:
        self.inner.on_job_requeued(job)

    def on_trial_abandoned(self, job: Job) -> None:
        self.inner.on_trial_abandoned(job)

    def is_done(self) -> bool:
        return self.inner.is_done()

    def best_trial(self):
        return self.inner.best_trial()

    @property
    def num_trials(self) -> int:
        return self.inner.num_trials

    def state_dict(self) -> dict:
        """Delegate to the wrapped scheduler.

        The rule's observation history and the ``stopped_early`` set are not
        serialized: a restored study re-observes measurements as replay
        feeds them back through :meth:`report`, and journal replay re-runs
        the rule's votes deterministically.  A bare snapshot-restore resets
        the rule — documented in ``docs/study.md``.
        """
        return self.inner.state_dict()

    def load_state(self, state: dict) -> None:
        self.inner.load_state(state)
        self.stopped_early.clear()
