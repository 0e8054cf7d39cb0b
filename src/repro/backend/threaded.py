"""Real parallel execution: a thread-pool backend for genuine objectives.

The simulator in :mod:`repro.backend.simulation` reproduces the paper's
*timing* behaviour; this backend demonstrates that the same schedulers drive
*real* training runs concurrently.  It is Algorithm 2's shape: the thread
that calls :meth:`ThreadPoolBackend.run` is the master and the only thread
that touches the study, the checkpoint store and the telemetry hub.  It
offers each free worker a ready retry first and then one ``ask``, hands the
job (with its resolved checkpoint) to that worker's inbox, and blocks on one
result queue until the next result, retry-ready time, deadline or time
limit.  Worker threads only train.

Fault tolerance mirrors the simulator: pass a
:class:`~repro.backend.faults.RetryPolicy` to :meth:`ThreadPoolBackend.run`
and crashed jobs are re-queued with wall-clock backoff until their trial's
retry budget runs out, and the master enforces ``RetryPolicy.timeout``
(wall-clock seconds) on in-flight jobs.  Python threads cannot be
preempted, so a killed job's worker stays occupied until its ``train``
call returns — but the scheduler is released at the deadline (the job is
requeued or its trial abandoned) and the stale result is discarded when the
thread finally comes back.

Use it with :class:`repro.objectives.mlp_real.RealMLPObjective` or any other
objective whose ``train`` does real work; numpy releases the GIL in its
inner kernels, so training genuinely overlaps.
"""

from __future__ import annotations

import heapq
import queue
import threading
import time as _time
from typing import Any

from ..core.scheduler import Scheduler
from ..core.types import Job
from ..objectives.base import Objective
from ..study import Study
from ..telemetry import EventKind, TelemetryHub, runtime
from .checkpoint import CheckpointStore
from .faults import FaultManager, RetryPolicy, route_failure
from .trial_runner import BackendResult, bracket_counter, record_report, wire_telemetry

__all__ = ["ThreadPoolBackend"]


def _train_jobs(
    worker: int, objective: Objective, inbox: queue.SimpleQueue, outbox: queue.SimpleQueue
) -> None:
    """One worker thread: train each ``(job, resume point)`` until ``None``.

    Posts ``(worker, (state, loss), None)`` on success and
    ``(worker, None, repr(exc))`` when training raised.
    """
    for job, point in iter(inbox.get, None):
        try:
            from_resource, state = CheckpointStore.build_state(point, job, objective)
            trained = objective.train(state, job.config, from_resource, job.resource)
        except Exception as exc:  # noqa: BLE001 — any training crash forfeits
            outbox.put((worker, None, repr(exc)))
        else:
            outbox.put((worker, trained, None))


class ThreadPoolBackend:
    """Run a search with real threads and wall-clock time.

    Parameters
    ----------
    num_workers:
        Worker threads.
    shutdown_grace:
        Once the run stops dispatching — at ``time_limit``, or when no live
        job can still report — how many extra seconds to wait for threads
        still training before returning with them running (they are
        daemons).  Results that land inside the window are recorded.
    """

    def __init__(self, num_workers: int, shutdown_grace: float = 5.0):
        if num_workers < 1:
            raise ValueError(f"num_workers must be >= 1, got {num_workers}")
        if shutdown_grace < 0:
            raise ValueError(f"shutdown_grace must be >= 0, got {shutdown_grace}")
        self.num_workers = num_workers
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

        The run ends at ``time_limit``, at ``max_measurements`` reports, or
        once the study is done and nothing is in flight or waiting to retry.
        Journal-backed studies replay in ``mode="restore"`` (see
        docs/study.md): wall-clock timings cannot be re-executed.

        With a ``retry_policy``, a job whose ``train`` raises is re-queued
        (``on_job_requeued``) after the policy's wall-clock backoff and
        offered to the next free worker, until the trial's consecutive-failure
        count reaches ``max_attempts`` and it is quarantined
        (``on_trial_abandoned``).  When ``retry_policy.timeout`` is set, the
        master fails any job in flight longer than that many seconds and
        counts it busy until then; the timeout is retry-eligible unless
        ``retry_timeouts=False``.

        With a ``telemetry`` hub attached, every dispatch/report/failure is
        emitted with the backend's wall clock (seconds since run start) and
        the worker's index, so the collector can reconstruct the per-worker
        utilisation series the paper's Section 3.2 claims are stated in.
        With ``trace=True``, a :class:`~repro.telemetry.TraceBuilder` rides
        along as a sink (a hub is created if none was given) and the
        reconstructed :class:`~repro.telemetry.Trace` lands on
        :attr:`BackendResult.trace`.
        """
        if time_limit <= 0:
            raise ValueError(f"time_limit must be positive, got {time_limit}")
        study, hub, tracer = wire_telemetry(scheduler, telemetry, trace)
        done_resource = max_resource if max_resource is not None else objective.max_resource
        store = CheckpointStore()
        store.telemetry = hub
        # A restored study arrives with trials already trained; give their
        # checkpoints lazy placeholders (no-op for fresh runs).
        store.seed_from_trials(study.trials)
        faults = FaultManager(retry_policy) if retry_policy is not None else None
        timeout = retry_policy.timeout if retry_policy is not None else None
        snapshot = bracket_counter(study)
        # None unless a runtime registry is installed (repro.telemetry.runtime).
        probes = runtime.probes("backend", backend="threads")
        result = BackendResult()
        outbox: queue.SimpleQueue = queue.SimpleQueue()
        inboxes = [queue.SimpleQueue() for _ in range(self.num_workers)]
        for worker, inbox in enumerate(inboxes):
            threading.Thread(
                target=_train_jobs, args=(worker, objective, inbox, outbox), daemon=True
            ).start()
        # The lowest-numbered free worker takes the next job, as in the simulator.
        free = list(range(self.num_workers))
        idle: set[int] = set()
        # worker -> (job, dispatch time) for every occupied worker; ``killed``
        # marks those whose attempt the deadline already failed.
        running: dict[int, tuple[Job, float]] = {}
        killed: set[int] = set()
        # Retries waiting out their backoff: (ready_at, job, attempt).
        retries: list[tuple[float, Job, int]] = []
        busy = 0.0
        start = _time.monotonic()

        def clock() -> float:
            return _time.monotonic() - start

        def set_in_flight() -> None:
            if probes is not None:
                probes.in_flight.set(float(len(running) - len(killed)))

        def fail(job: Job, worker: int, *, reason: str, lost: float, now: float, error=None):
            nonlocal busy
            busy += lost
            decision = route_failure(
                study, result, hub, faults, probes, job, worker,
                reason=reason, lost=lost, time=now, error=error, busy=lost,
            )
            if decision is not None and decision.retry:
                retries.append((now + decision.delay, job, decision.failures + 1))

        def settle(worker: int, trained: Any, error: str | None, now: float) -> None:
            """Fold one worker's returned attempt into the study."""
            nonlocal busy
            job, t0 = running.pop(worker)
            heapq.heappush(free, worker)
            if worker in killed:
                # The deadline already failed this attempt and released the
                # scheduler; the late result is stale.
                killed.discard(worker)
                return
            if probes is not None:
                probes.collects.inc()
            set_in_flight()
            lost = now - t0
            if error is not None:
                fail(job, worker, reason="exception", lost=lost, now=now, error=error)
                return
            busy += lost
            if faults is not None:
                faults.record_success(job)
            state, loss = trained
            store.put(job.trial_id, job.resource, state)
            record_report(result, study, job, loss, now, done_resource, snapshot)
            if hub:
                hub.emit(
                    EventKind.REPORT,
                    time=now,
                    trial_id=job.trial_id,
                    job_id=job.job_id,
                    worker_id=worker,
                    rung=job.rung,
                    bracket=job.bracket,
                    loss=loss,
                    resource=job.resource,
                    busy=lost,
                )

        def next_job(now: float) -> tuple[Job, int] | None:
            for i, (ready_at, job, attempt) in enumerate(retries):
                if ready_at <= now:
                    del retries[i]
                    return job, attempt
            if study.is_done():
                return None
            job = study.ask()
            if job is None:
                return None
            return job, 1 if faults is None else faults.attempt_number(job)

        def dispatch(worker: int, job: Job, attempt: int, now: float) -> None:
            result.jobs_dispatched += 1
            running[worker] = (job, now)
            idle.discard(worker)
            if hub:
                extra = {"attempt": attempt} if attempt > 1 else {}
                hub.emit(
                    EventKind.JOB_STARTED,
                    time=now,
                    trial_id=job.trial_id,
                    job_id=job.job_id,
                    worker_id=worker,
                    rung=job.rung,
                    bracket=job.bracket,
                    resource=job.resource,
                    checkpoint_resource=job.checkpoint_resource,
                    **extra,
                )
            # Donor snapshot and ``checkpoint_restored`` happen here, at the
            # dispatch; the worker only turns the point into training state.
            inboxes[worker].put((job, store.resume_point(job, consume=True)))
            if probes is not None:
                probes.dispatches.inc()
            set_in_flight()

        item = None
        while True:
            now = clock()
            if hub:
                hub.set_time(now)
            if item is not None:
                settle(*item, now)
            if now >= time_limit:
                break
            if timeout is not None:
                for worker, (job, t0) in running.items():
                    if worker not in killed and now - t0 >= timeout:
                        killed.add(worker)
                        set_in_flight()
                        fail(job, worker, reason="timeout", lost=now - t0, now=now)
            capped = max_measurements is not None and len(result.measurements) >= max_measurements
            while free and not capped:
                taken = next_job(now)
                if taken is None:
                    break
                dispatch(heapq.heappop(free), *taken, now)
            if len(running) == len(killed) and (capped or (not retries and study.is_done())):
                break
            if hub:
                # Only on the busy -> idle transition, so a rung barrier
                # doesn't flood the stream.
                for worker in sorted(set(free) - idle):
                    idle.add(worker)
                    hub.emit(EventKind.WORKER_IDLE, time=now, worker_id=worker)
            wake = time_limit
            if free and not capped:
                wake = min([wake, *(ready_at for ready_at, _, _ in retries)])
            if timeout is not None:
                deadlines = (t0 + timeout for w, (_, t0) in running.items() if w not in killed)
                wake = min([wake, *deadlines])
            try:
                item = outbox.get(timeout=max(wake - clock(), 0.0))
            except queue.Empty:
                item = None

        # Shutdown: free workers exit now, busy ones after their job.
        for inbox in inboxes:
            inbox.put(None)
        grace_end = clock() + self.shutdown_grace
        while running:
            try:
                item = outbox.get(timeout=max(grace_end - clock(), 0.0))
            except queue.Empty:
                break
            now = clock()
            if hub:
                hub.set_time(now)
            settle(*item, now)
        result.elapsed = clock()
        horizon = max(result.elapsed, 1e-9)
        result.utilization = min(busy / (self.num_workers * horizon), 1.0)
        study.finalize()  # journal durability: flush + fsync
        if hub:
            result.telemetry = hub.finalize(elapsed=horizon, num_workers=self.num_workers)
        if tracer is not None:
            result.trace = tracer.build()
        return result
