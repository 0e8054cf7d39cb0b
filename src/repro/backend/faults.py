"""Fault tolerance: retry policies, job deadlines, and failure injection.

The paper's core systems claim is that ASHA stays effective on clusters with
stragglers and dropped jobs (Section 3.2, Appendix A.1).  Out of the box the
backends treat every failure as a permanent forfeit: the job's trial is
handed to ``Scheduler.on_job_failed`` and never tried again.  Real
schedulers in this space (Syne Tune, Hyper-Tune) ship retry/timeout
machinery as a first-class layer, and this module is ours — shared by
:class:`~repro.backend.simulation.SimulatedCluster` and
:class:`~repro.backend.threaded.ThreadPoolBackend`:

* :class:`RetryPolicy` — how many times a trial may fail before it is
  quarantined, how long to back off between attempts (in *backend* time:
  simulated units or wall-clock seconds), and an optional per-job deadline;
* :class:`FaultManager` — the per-run bookkeeping both backends drive:
  consecutive-failure counts, retry/abandon dispositions, wasted-time
  accounting;
* :class:`FailureInjectingObjective` — a seeded wrapper that makes any
  objective crash or hang on demand, so the whole layer is testable
  end-to-end without real flaky hardware.

A retried job re-enters exactly the rung it left: the backend re-dispatches
the *same* :class:`~repro.core.types.Job` (same target resource, rung and
bracket), notifying the scheduler through
:meth:`~repro.core.scheduler.Scheduler.on_job_requeued` — distinct from the
forfeit path.  Only when the retry budget is exhausted does the trial reach
:meth:`~repro.core.scheduler.Scheduler.on_trial_abandoned` and a terminal
``trial_abandoned`` telemetry event.
"""

from __future__ import annotations

import math
import threading
import time as _time
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from ..core.types import Config, Job
from ..objectives.base import Objective

__all__ = [
    "RetryPolicy",
    "FaultDecision",
    "FaultManager",
    "InjectedFailure",
    "FailureInjectingObjective",
]


@dataclass(frozen=True)
class RetryPolicy:
    """How a backend responds to failed, dropped, or timed-out jobs.

    Parameters
    ----------
    max_attempts:
        Total attempts a trial gets before it is quarantined, counted over
        *consecutive* failures — a successful report resets the count, so a
        long-lived trial that occasionally hits a transient drop is never
        starved, while a poison trial is abandoned after ``max_attempts``
        failures in a row.  ``1`` means "never retry": the first failure
        abandons the trial.
    backoff:
        Delay before the first re-dispatch, in backend time units (simulated
        time under the cluster simulator, seconds under the thread pool).
        ``0`` (default) retries as soon as a worker is free.
    backoff_factor:
        Exponential multiplier applied per additional consecutive failure:
        the ``n``-th retry waits ``backoff * backoff_factor**(n - 1)``.
    max_backoff:
        Upper clamp on any single backoff delay.
    timeout_factor:
        Simulator-only deadline: a dispatched job is killed once it has run
        for ``timeout_factor`` times its *expected* cost (the objective's
        nominal cost model, before straggler stretching or injected hangs).
        The thread pool refuses it.  ``None`` disables simulated deadlines.
    timeout:
        Thread-pool deadline in wall-clock seconds per dispatched job; the
        simulator refuses it.  Python threads cannot be preempted, so a
        timed-out job's worker stays busy until ``train`` returns — but the
        scheduler is released at the deadline: the result is discarded and
        the job becomes eligible for retry on another worker.
    retry_timeouts:
        Whether timed-out jobs are eligible for retry (default) or abandon
        their trial on the first deadline kill.
    """

    max_attempts: int = 3
    backoff: float = 0.0
    backoff_factor: float = 2.0
    max_backoff: float = math.inf
    timeout_factor: float | None = None
    timeout: float | None = None
    retry_timeouts: bool = True

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.backoff < 0:
            raise ValueError(f"backoff must be >= 0, got {self.backoff}")
        if self.backoff_factor < 1:
            raise ValueError(f"backoff_factor must be >= 1, got {self.backoff_factor}")
        if self.max_backoff < 0:
            raise ValueError(f"max_backoff must be >= 0, got {self.max_backoff}")
        if self.timeout_factor is not None and self.timeout_factor <= 0:
            raise ValueError(f"timeout_factor must be positive, got {self.timeout_factor}")
        if self.timeout is not None and self.timeout <= 0:
            raise ValueError(f"timeout must be positive, got {self.timeout}")

    def backoff_for(self, failures: int) -> float:
        """Delay before re-dispatch after ``failures`` consecutive failures."""
        if failures < 1:
            raise ValueError(f"failures must be >= 1, got {failures}")
        if self.backoff <= 0:
            return 0.0
        return min(self.backoff * self.backoff_factor ** (failures - 1), self.max_backoff)

    def sim_deadline(self, expected_cost: float) -> float | None:
        """Simulated-time kill deadline for a job of ``expected_cost``."""
        if self.timeout_factor is None:
            return None
        return self.timeout_factor * max(expected_cost, 1e-9)


@dataclass(frozen=True)
class FaultDecision:
    """What the backend should do about one failed job."""

    #: ``"retry"`` or ``"abandon"``.
    action: str
    #: Consecutive failures of this trial, including the one just recorded.
    failures: int
    #: Backend-time delay before re-dispatch (retries only).
    delay: float = 0.0

    @property
    def retry(self) -> bool:
        return self.action == "retry"


class FaultManager:
    """Per-run retry bookkeeping shared by the execution backends.

    The manager only *decides*; backends own dispatch, worker accounting and
    telemetry emission, because those are where the clocks live.  All state
    is keyed by trial id so a retried job (same ``job_id``) and a fresh job
    for the same trial share one failure budget.
    """

    def __init__(self, policy: RetryPolicy):
        self.policy = policy
        #: Consecutive failures per trial (reset on success).
        self.failures: dict[int, int] = {}
        #: Trials quarantined for good.
        self.abandoned: set[int] = set()

    def attempt_number(self, job: Job) -> int:
        """1-based attempt number the next dispatch of ``job`` would be."""
        return self.failures.get(job.trial_id, 0) + 1

    def record_success(self, job: Job) -> None:
        """A job completed: reset its trial's consecutive-failure count."""
        self.failures.pop(job.trial_id, None)

    def record_failure(self, job: Job, *, reason: str) -> FaultDecision:
        """Record one failure and decide between retry and quarantine."""
        count = self.failures.get(job.trial_id, 0) + 1
        self.failures[job.trial_id] = count
        retryable = reason != "timeout" or self.policy.retry_timeouts
        if count >= self.policy.max_attempts or not retryable or (
            job.trial_id in self.abandoned
        ):
            self.abandoned.add(job.trial_id)
            return FaultDecision(action="abandon", failures=count)
        return FaultDecision(
            action="retry", failures=count, delay=self.policy.backoff_for(count)
        )


class InjectedFailure(RuntimeError):
    """The exception :class:`FailureInjectingObjective` raises on purpose."""


class FailureInjectingObjective(Objective):
    """Wrap an objective with seeded, deterministic crash/hang injection.

    Faults are keyed per *configuration* (each trial has a distinct sampled
    config, and a trial's jobs all share one config object), so "fail the
    first two attempts of this trial, then succeed" is expressible without
    the objective knowing about trial ids:

    * ``crash_first`` — the first ``n`` training calls for each targeted
      config raise :class:`InjectedFailure`, later ones succeed;
    * ``crash_probability`` — each training call of a targeted config
      additionally crashes with this probability (seeded RNG);
    * ``hang_first`` / ``hang_probability`` — same selection, but the job
      *hangs* instead of crashing: under the simulator the job's cost is
      inflated by ``hang_duration`` simulated units (so its completion event
      slides past any deadline), while :meth:`nominal_cost` keeps reporting
      the clean cost deadlines are computed from; under the thread pool,
      ``train`` really sleeps ``hang_duration`` seconds when ``real_sleep``
      is set (keep it small in tests).
    * ``target`` — optional ``predicate(config) -> bool`` restricting
      injection to matching configurations (by default every config is
      eligible).

    Thread-safe; the injection RNG is consumed in call order, so simulated
    runs remain fully deterministic.
    """

    #: The injection RNG and per-config call counters live in the master
    #: process; forked copies would diverge, so the process-pool backend
    #: must train this objective inline.
    process_safe = False

    def __init__(
        self,
        inner: Objective,
        *,
        seed: int = 0,
        crash_first: int = 0,
        crash_probability: float = 0.0,
        hang_first: int = 0,
        hang_probability: float = 0.0,
        hang_duration: float = 1e9,
        real_sleep: bool = False,
        target: Callable[[Config], bool] | None = None,
    ):
        if not 0 <= crash_probability <= 1 or not 0 <= hang_probability <= 1:
            raise ValueError("crash/hang probabilities must be in [0, 1]")
        if crash_first < 0 or hang_first < 0:
            raise ValueError("crash_first and hang_first must be >= 0")
        if hang_duration <= 0:
            raise ValueError(f"hang_duration must be positive, got {hang_duration}")
        self.inner = inner
        self.space = inner.space
        self.max_resource = inner.max_resource
        self.crash_first = crash_first
        self.crash_probability = crash_probability
        self.hang_first = hang_first
        self.hang_probability = hang_probability
        self.hang_duration = hang_duration
        self.real_sleep = real_sleep
        self.target = target
        self._rng = np.random.default_rng(seed)
        self._train_calls: dict[tuple, int] = {}
        self._cost_calls: dict[tuple, int] = {}
        self._lock = threading.Lock()
        #: Injected crashes / hangs so far (for test assertions).
        self.crashes_injected = 0
        self.hangs_injected = 0

    # ------------------------------------------------------------ selection

    @staticmethod
    def _key(config: Config) -> tuple:
        return tuple(sorted((k, repr(v)) for k, v in config.items()))

    def _targeted(self, config: Config) -> bool:
        return self.target is None or bool(self.target(config))

    def _should_hang(self, config: Config) -> bool:
        if not self._targeted(config):
            return False
        with self._lock:
            key = self._key(config)
            call = self._cost_calls.get(key, 0) + 1
            self._cost_calls[key] = call
            if call <= self.hang_first or (
                self.hang_probability > 0 and self._rng.random() < self.hang_probability
            ):
                self.hangs_injected += 1
                return True
        return False

    def _should_crash(self, config: Config) -> bool:
        if not self._targeted(config):
            return False
        with self._lock:
            key = self._key(config)
            call = self._train_calls.get(key, 0) + 1
            self._train_calls[key] = call
            if call <= self.crash_first or (
                self.crash_probability > 0 and self._rng.random() < self.crash_probability
            ):
                self.crashes_injected += 1
                return True
        return False

    # ------------------------------------------------------------ protocol

    def initial_state(self, config: Config) -> Any:
        return self.inner.initial_state(config)

    def train(
        self, state: Any, config: Config, from_resource: float, to_resource: float
    ) -> tuple[Any, float]:
        if self.real_sleep and self._should_hang(config):
            # Thread-pool semantics: the worker really stalls — long enough
            # to trip a wall-clock deadline — then training proceeds (the
            # master discards the result if the deadline already fired).
            _time.sleep(self.hang_duration)
        if self._should_crash(config):
            raise InjectedFailure(
                f"injected crash (training call "
                f"{self._train_calls[self._key(config)]}) for config {config!r}"
            )
        return self.inner.train(state, config, from_resource, to_resource)

    def cost(self, config: Config, from_resource: float, to_resource: float) -> float:
        base = self.inner.cost(config, from_resource, to_resource)
        if not self.real_sleep and self._should_hang(config):
            # Simulator semantics: the completion event slides out by
            # ``hang_duration`` simulated units while ``nominal_cost`` (and
            # therefore any deadline) keeps seeing the clean cost model.
            return base + self.hang_duration
        return base

    def nominal_cost(self, config: Config, from_resource: float, to_resource: float) -> float:
        """The clean cost model — what deadlines are computed from."""
        return self.inner.cost(config, from_resource, to_resource)

    def cost_multiplier(self, config: Config) -> float:
        return self.inner.cost_multiplier(config)
