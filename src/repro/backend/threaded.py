"""Real parallel execution: the simulator's master loop on a wall clock.

:class:`ThreadPoolBackend` drives *real* training concurrently with the
simulator's own :class:`~repro.backend.simulation.SimRun` and
:func:`~repro.backend.simulation.drive_runs`.  Only three things differ: a
launch hands the job and its resume point to that worker's thread instead
of scheduling a cost-model completion; ``RetryPolicy.timeout`` (seconds) is
armed as the calendar's ``timeout`` event; and each attempt a thread
returns becomes a ``complete`` event at the wall time it came back.  So the
thread that calls :meth:`ThreadPoolBackend.run` is the only one touching
the study, the checkpoint store and the telemetry hub.

Python threads cannot be preempted: a timed-out attempt releases the
scheduler at its deadline, but its thread keeps its worker until ``train``
returns, and that late result is discarded.  numpy releases the GIL in its
inner kernels, so objectives like
:class:`repro.objectives.mlp_real.RealMLPObjective` genuinely overlap.
"""

from __future__ import annotations

import heapq
import math
import threading
import time as _time
from queue import Empty, SimpleQueue
from typing import Any

from ..core.scheduler import Scheduler
from ..core.types import Job
from ..objectives.base import Objective
from ..study import Study
from ..telemetry import TelemetryHub, runtime
from .checkpoint import CheckpointStore
from .events import EventQueue
from .faults import RetryPolicy
from .simulation import SimRun, SimulatedCluster, _Attempt, drive_runs
from .trial_runner import BackendResult

__all__ = ["ThreadPoolBackend"]


def _train_jobs(objective: Objective, inbox: SimpleQueue, outbox: SimpleQueue) -> None:
    """One worker thread: train each ``(attempt, resume point)`` until ``None``.

    Posts ``(attempt, outcome)``: ``(state, loss)`` or what ``train`` raised.
    """
    for attempt, point in iter(inbox.get, None):
        job = attempt.job
        try:
            from_resource, state = CheckpointStore.build_state(point, job, objective)
            outcome = objective.train(state, job.config, from_resource, job.resource)
        except Exception as exc:  # noqa: BLE001 — the master routes the failure
            outcome = exc
        outbox.put((attempt, outcome))


class _WorkerThreads:
    """One run's worker threads: the :attr:`SimRun.pool` a completion takes from."""

    def __init__(self, objective: Objective, num_workers: int, grace: float):
        self.results: SimpleQueue = SimpleQueue()
        self.inboxes = [SimpleQueue() for _ in range(num_workers)]
        for inbox in self.inboxes:
            args = (objective, inbox, self.results)
            threading.Thread(target=_train_jobs, args=args, daemon=True).start()
        self.grace = grace
        #: Workers whose thread has not returned its attempt yet.
        self.training: set[int] = set()
        #: job id -> its thread's outcome, until the completion event takes it.
        self.returned: dict[int, Any] = {}
        # None unless a runtime registry is installed (repro.telemetry.runtime).
        self.probes = runtime.probes("backend", backend="threads")

    def hand(self, attempt: _Attempt, point: Any) -> None:
        self.training.add(attempt.worker)
        self.inboxes[attempt.worker].put((attempt, point))
        if self.probes is not None:
            self.probes.dispatches.inc()
            self.probes.in_flight.set(float(len(self.training)))

    def get(self, timeout: float) -> tuple[_Attempt, Any] | None:
        """The next attempt a thread returns within ``timeout`` seconds, or ``None``."""
        try:
            item = self.results.get(timeout=timeout)
        except Empty:
            return None
        self.training.discard(item[0].worker)
        if self.probes is not None:
            self.probes.in_flight.set(float(len(self.training)))
        return item

    def take(self, job: Job) -> tuple[Any, float]:
        """``job``'s ``(state, loss)``; re-raises what its ``train`` raised."""
        outcome = self.returned.pop(job.job_id)
        if self.probes is not None:
            self.probes.collects.inc()
        if isinstance(outcome, Exception):
            raise outcome
        return outcome

    def discard(self, job: Job) -> None:
        self.returned.pop(job.job_id, None)

    def close(self) -> None:
        """Idle threads exit now, busy ones after their attempt, waited on for the grace."""
        for inbox in self.inboxes:
            inbox.put(None)
        end = _time.monotonic() + self.grace
        while self.training and self.get(max(end - _time.monotonic(), 0.0)) is not None:
            pass


class _WallClockRun(SimRun):
    """A :class:`SimRun` whose attempts train on threads and end when they return."""

    deadline_fields = ("timeout", "timeout_factor")

    def __init__(self, cluster: "ThreadPoolBackend", *args: Any, **kwargs: Any):
        super().__init__(cluster, *args, **kwargs)
        self.pool = _WorkerThreads(self.objective, cluster.num_workers, cluster.shutdown_grace)
        self.origin = _time.monotonic()

    def _now(self) -> float:
        return _time.monotonic() - self.origin

    def _start(self, attempt: _Attempt) -> None:
        # The completion resolves the resume point, as in the simulator; the
        # duration stays unplanned until the thread returns.
        self.pool.hand(attempt, self.store.resume_point(attempt.job, consume=False))
        timeout = getattr(self.retry_policy, "timeout", None)
        if timeout is not None:
            self._push(self.clock + timeout, "timeout", attempt)

    def _release(self, worker: int) -> None:
        if worker not in self.pool.training:  # else its thread's return rejoins it
            heapq.heappush(self.free_ids, worker)

    def wait(self, until: float | None) -> bool:
        """:func:`drive_runs`' hook: block on the threads until ``until`` or the time limit.

        A returned attempt becomes a ``complete`` event at the wall time it
        came back, which plans its duration, or, if a deadline killed it, a
        ``rejoin`` of its worker.
        With nothing due, the run waits only while a thread can still report
        or free a worker that work waits for; at the time limit it posts an
        event past the budget, which ends the run.
        """
        pool = self.pool
        if until is None:
            held = pool.training and not self.free_ids  # by killed attempts
            if not (self.live or held and (self.pending_retries or not self.study.is_done())):
                return False
            until = math.inf
        timeout = min(until, self.time_limit) - self._now()
        item = pool.get(timeout) if timeout > 0 else None
        if item is not None:
            attempt, outcome = item
            # A wait can end a hair before its timeout, and the event it was
            # waiting for is then delivered early: never stamp behind it.
            now = max(self._now(), self.queue.clock)
            if attempt.index >= 0:
                pool.returned[attempt.job.job_id] = outcome
                attempt.planned = now - attempt.started
                self._push(now, "complete", attempt)
            else:  # a deadline ended it already
                self._push(now, "rejoin", attempt.worker)
            return True
        if until == math.inf:
            limit = math.nextafter(self.time_limit, math.inf)
            self._push(max(self._now(), limit), "time_limit")
            return True
        return False

    def close(self) -> None:
        super().close()
        self.clock = max(self.clock, self._now())  # the run lasted through the grace


class ThreadPoolBackend(SimulatedCluster):
    """Run a search with real threads and wall-clock time.

    Parameters
    ----------
    num_workers:
        Worker threads.
    shutdown_grace:
        Once the run stops, how many extra seconds to wait for threads still
        training before returning with them running (they are daemons).
        Their results are discarded, as past the end of a simulated run.
    """

    probes_as = ("backend", "threads")

    def __init__(self, num_workers: int, shutdown_grace: float = 5.0):
        super().__init__(num_workers)
        if shutdown_grace < 0:
            raise ValueError(f"shutdown_grace must be >= 0, got {shutdown_grace}")
        self.shutdown_grace = shutdown_grace

    def run(
        self,
        scheduler: Scheduler | Study,
        objective: Objective,
        *,
        time_limit: float,
        max_resource: float | None = None,
        max_measurements: int | None = None,
        telemetry: TelemetryHub | None = None,
        retry_policy: RetryPolicy | None = None,
        trace: bool = False,
    ) -> BackendResult:
        """Drive ``scheduler`` with real threads until ``time_limit`` seconds.

        The arguments are those of :meth:`SimulatedCluster.run`, in seconds,
        and so are the stopping rules.  Journal-backed studies replay in
        ``mode="restore"`` (see docs/study.md).  A ``retry_policy``'s
        deadline is ``timeout``; one that sets ``timeout_factor`` raises
        ``ValueError``.
        """
        run = _WallClockRun(
            self, scheduler, objective, queue=EventQueue(), time_limit=time_limit,
            max_resource=max_resource, max_measurements=max_measurements,
            telemetry=telemetry, retry_policy=retry_policy, trace=trace,
        )
        try:
            drive_runs(run.queue, [run], wait=run.wait)
        finally:
            run.close()
        return run.finish()
