"""Real parallel execution: a thread-pool backend for genuine objectives.

The simulator in :mod:`repro.backend.simulation` reproduces the paper's
*timing* behaviour; this backend demonstrates that the same schedulers drive
*real* training runs concurrently.  Worker threads pull jobs from the
scheduler under a lock (the scheduler itself is not thread-safe — exactly
like ASHA's single-master design, where ``get_job`` runs on the master and
only training is distributed), execute ``objective.train`` without the lock,
and report results back under the lock.

Fault tolerance mirrors the simulator: pass a
:class:`~repro.backend.faults.RetryPolicy` to :meth:`ThreadPoolBackend.run`
and crashed jobs are re-queued with wall-clock backoff until their trial's
retry budget runs out, and a watchdog thread enforces
``RetryPolicy.timeout`` (wall-clock seconds) on in-flight jobs.  Python
threads cannot be preempted, so a "killed" job's thread keeps running until
its ``train`` call returns — but the scheduler is released immediately (the
job is requeued or its trial abandoned) and the stale result is discarded
when the thread finally comes back.

Use it with :class:`repro.objectives.mlp_real.RealMLPObjective` or any other
objective whose ``train`` does real work; numpy releases the GIL in its
inner kernels, so training genuinely overlaps.
"""

from __future__ import annotations

import threading
import time as _time

from ..core.scheduler import Scheduler
from ..core.types import Job
from ..objectives.base import Objective
from ..study import Study
from ..telemetry import EventKind, TelemetryHub, runtime
from .checkpoint import CheckpointStore
from .faults import FaultManager, RetryPolicy, route_failure
from .trial_runner import BackendResult, bracket_counter, record_report, wire_telemetry

__all__ = ["ThreadPoolBackend"]


class _TaskState:
    """One study's share of the pool: its stores, fault budget and backlog."""

    __slots__ = (
        "study",
        "objective",
        "done_resource",
        "store",
        "result",
        "hub",
        "faults",
        "bracket_snapshot",
        "retry_queue",
        "busy",
        "capped",
    )

    def __init__(
        self,
        scheduler: Scheduler | Study,
        objective: Objective,
        max_resource: float | None,
        retry_policy: RetryPolicy | None,
    ) -> None:
        # Workers drive a Study (ask/tell + fault hooks) under the backend
        # lock; a bare scheduler gets an unjournalled wrapper.  Wall-clock
        # journals replay in ``mode="restore"`` (see docs/study.md) — the
        # thread backend's timings cannot be re-executed byte-identically.
        self.study = scheduler if isinstance(scheduler, Study) else Study(scheduler)
        self.objective = objective
        self.done_resource = (
            max_resource if max_resource is not None else objective.max_resource
        )
        self.store = CheckpointStore()
        self.result = BackendResult()
        self.hub = self.study.telemetry
        self.store.telemetry = self.hub
        # A restored study arrives with trials already trained; give their
        # checkpoints lazy placeholders (no-op for fresh runs).
        self.store.seed_from_trials(self.study.trials)
        self.faults = FaultManager(retry_policy) if retry_policy is not None else None
        self.bracket_snapshot = bracket_counter(self.study)
        # Retries waiting out their backoff: (ready_at, job, attempt).
        self.retry_queue: list[tuple[float, Job, int]] = []
        self.busy = 0.0
        #: Reached ``max_measurements``: the study takes no further jobs.
        self.capped = False

    def exhausted(self) -> bool:
        """No dispatchable work and none coming from the scheduler."""
        return self.capped or (not self.retry_queue and self.study.is_done())


class ThreadPoolBackend:
    """Run a search with real threads and wall-clock time.

    Parameters
    ----------
    num_workers:
        Worker threads.
    poll_interval:
        How long an idle worker sleeps before re-asking the scheduler
        (synchronous schedulers block workers at rung barriers).
    shutdown_grace:
        After the run's shared ``time_limit`` deadline passes and the stop
        flag is raised, how many extra seconds to wait for straggler threads
        before returning with them still running (they are daemons and hold
        no locks at that point).
    """

    def __init__(
        self,
        num_workers: int,
        poll_interval: float = 0.005,
        shutdown_grace: float = 5.0,
    ):
        if num_workers < 1:
            raise ValueError(f"num_workers must be >= 1, got {num_workers}")
        if shutdown_grace < 0:
            raise ValueError(f"shutdown_grace must be >= 0, got {shutdown_grace}")
        self.num_workers = num_workers
        self.poll_interval = poll_interval
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

        A solo run is :meth:`run_many` over one study — see there for the
        dispatch, retry and watchdog semantics — plus the telemetry wiring:

        With a ``telemetry`` hub attached, every dispatch/report/failure is
        emitted with the backend's wall clock (seconds since run start) and
        the worker thread's index, so the collector can reconstruct the
        per-worker utilisation series the paper's Section 3.2 claims are
        stated in.

        With ``trace=True``, a :class:`~repro.telemetry.TraceBuilder` rides
        along as a sink (a hub is created if none was given) and the
        reconstructed span/timeline :class:`~repro.telemetry.Trace` lands on
        :attr:`BackendResult.trace`.
        """
        if time_limit <= 0:
            raise ValueError(f"time_limit must be positive, got {time_limit}")
        study, _, tracer = wire_telemetry(scheduler, telemetry, trace)
        result = self.run_many(
            [(study, objective)],
            time_limit=time_limit,
            max_resource=max_resource,
            max_measurements=max_measurements,
            retry_policy=retry_policy,
        )[0]
        if tracer is not None:
            result.trace = tracer.build()
        return result

    def run_many(
        self,
        tasks: "list[tuple[Scheduler | Study, Objective]]",
        *,
        time_limit: float,
        max_resource: float | None = None,
        max_measurements: int | None = None,
        retry_policy: RetryPolicy | None = None,
    ) -> list[BackendResult]:
        """Drive many studies through one shared worker pool.

        ``tasks`` is a list of ``(scheduler_or_study, objective)`` pairs,
        and the pool's workers round-robin their asks across every study
        that still has work — one process, one set of threads, N concurrent
        searches.  A study whose scheduler is momentarily starved (rung
        barrier) simply cedes its turn instead of parking a dedicated
        worker in a poll loop, which is the whole point: worker threads are
        shared capacity, not per-study property.

        Asks/reports happen under the backend lock against the owning study
        (journal-backed studies journal exactly their own interactions — a
        study's journal is byte-equivalent in *content* to a solo run,
        though wall-clock timings naturally differ); telemetry hubs attached
        to individual studies receive only their study's events, stamped
        with the shared run clock.  ``max_measurements`` caps each study
        separately: a study that reaches it takes no further jobs.

        With a ``retry_policy``, each study gets its own
        :class:`FaultManager`: a job whose ``train`` raises is re-queued
        (``on_job_requeued``) after the policy's wall-clock backoff and
        picked up by the next free worker, until the trial's
        consecutive-failure count reaches ``max_attempts`` and it is
        quarantined (``on_trial_abandoned``).  When ``retry_policy.timeout``
        is set, a watchdog thread fails any job in flight longer than that
        many wall-clock seconds; the timeout is retry-eligible unless
        ``retry_timeouts=False``.

        Each study's :attr:`BackendResult.utilization` is its share of the
        *pool's* capacity (busy time over ``num_workers x elapsed``), so
        the values sum to at most 1 across studies.

        Returns per-study results in task order.
        """
        if time_limit <= 0:
            raise ValueError(f"time_limit must be positive, got {time_limit}")
        if not tasks:
            raise ValueError("no tasks given")
        # None unless a runtime registry is installed (repro.telemetry.runtime);
        # all probe updates below happen under the backend lock.
        probes = runtime.probes("backend", backend="threads")
        states = [
            _TaskState(scheduler, objective, max_resource, retry_policy)
            for scheduler, objective in tasks
        ]
        lock = threading.Lock()
        stop = threading.Event()
        start = _time.monotonic()
        rr = [0]  # shared round-robin cursor, advanced under the lock
        # Dispatch tokens for in-flight jobs — a retried job reuses its job
        # id, so the watchdog and the late-returning thread key on the
        # (study, job_id, attempt) triple, not the id alone.
        in_flight: dict[tuple[_TaskState, int, int], tuple[Job, float, int]] = {}
        timed_out: set[tuple[_TaskState, int, int]] = set()

        def clock() -> float:
            return _time.monotonic() - start

        def fail_job(
            ts: _TaskState,
            job: Job,
            worker_id: int,
            *,
            reason: str,
            lost: float,
            t: float,
            error: str | None = None,
        ) -> None:
            """Route one failed attempt for ``ts`` (caller holds the lock)."""
            if ts.hub:
                # The scheduler's own reaction events carry the failure time.
                ts.hub.set_time(t)
            decision = route_failure(
                ts.study,
                ts.result,
                ts.hub,
                ts.faults,
                probes,
                job,
                worker_id,
                reason=reason,
                lost=lost,
                time=t,
                error=error,
                busy=lost,
            )
            if decision is not None and decision.retry:
                ts.retry_queue.append((t + decision.delay, job, decision.failures + 1))

        def take_job(ts: _TaskState, now: float) -> tuple[Job, int] | None:
            """One dispatchable job from ``ts``, or None (caller holds the lock)."""
            if (
                max_measurements is not None
                and len(ts.result.measurements) >= max_measurements
            ):
                ts.capped = True
            if ts.capped:
                return None
            for i, (ready_at, job, attempt) in enumerate(ts.retry_queue):
                if ready_at <= now:
                    ts.retry_queue.pop(i)
                    return job, attempt
            if ts.study.is_done():
                return None
            if ts.hub:
                # The scheduler emits under the backend lock, so its
                # decision events interleave in dispatch order.
                ts.hub.set_time(now)
            job = ts.study.ask()
            if job is None:
                return None
            attempt = 1 if ts.faults is None else ts.faults.attempt_number(job)
            return job, attempt

        def watchdog() -> None:
            """Fail jobs in flight past the policy's wall-clock timeout."""
            assert retry_policy is not None and retry_policy.timeout is not None
            while not stop.wait(min(self.poll_interval, retry_policy.timeout / 4)):
                now = clock()
                if now >= time_limit:
                    return
                with lock:
                    for token, (job, t0, worker_id) in list(in_flight.items()):
                        if now - t0 >= retry_policy.timeout:
                            del in_flight[token]
                            if probes is not None:
                                probes.in_flight.set(float(len(in_flight)))
                            timed_out.add(token)
                            fail_job(
                                token[0], job, worker_id, reason="timeout", lost=now - t0, t=now
                            )

        def worker(worker_id: int) -> None:
            was_idle = False
            while not stop.is_set() and clock() < time_limit:
                ts = None
                job = None
                attempt = 1
                with lock:
                    now = clock()
                    n = len(states)
                    for k in range(n):
                        cand = states[(rr[0] + k) % n]
                        taken = take_job(cand, now)
                        if taken is not None:
                            ts = cand
                            job, attempt = taken
                            # Next worker starts at the study after this one.
                            rr[0] = (rr[0] + k + 1) % n
                            break
                    if job is None:
                        if all(s.exhausted() for s in states):
                            return
                    else:
                        ts.result.jobs_dispatched += 1
                        ts.store.prepare(job)  # donor snapshot under the lock
                        token = (ts, job.job_id, attempt)
                        in_flight[token] = (job, clock(), worker_id)
                        if probes is not None:
                            probes.dispatches.inc()
                            probes.in_flight.set(float(len(in_flight)))
                if job is None:
                    if not was_idle:
                        # Emit only on the busy -> idle transition, not every
                        # poll, so a rung barrier doesn't flood the stream.
                        now = clock()
                        for s in states:
                            if s.hub:
                                s.hub.emit(
                                    EventKind.WORKER_IDLE, time=now, worker_id=worker_id
                                )
                    was_idle = True
                    _time.sleep(self.poll_interval)
                    continue
                was_idle = False
                t0 = clock()
                if ts.hub:
                    extra = {"attempt": attempt} if attempt > 1 else {}
                    ts.hub.emit(
                        EventKind.JOB_STARTED,
                        time=t0,
                        trial_id=job.trial_id,
                        job_id=job.job_id,
                        worker_id=worker_id,
                        rung=job.rung,
                        bracket=job.bracket,
                        resource=job.resource,
                        checkpoint_resource=job.checkpoint_resource,
                        **extra,
                    )
                error: str | None = None
                try:
                    # Real training happens outside the lock; the store
                    # serialises its own (cheap) checkpoint lookups.
                    from_resource, state = ts.store.starting_state(job, ts.objective)
                    state, loss = ts.objective.train(
                        state, job.config, from_resource, job.resource
                    )
                except Exception as exc:  # noqa: BLE001 — any training crash forfeits
                    error = repr(exc)
                t1 = clock()
                with lock:
                    ts.busy += t1 - t0
                    if token in timed_out:
                        # The watchdog already failed this dispatch and
                        # released the scheduler; the late result is stale.
                        timed_out.discard(token)
                        ts.store.discard(job)
                        continue
                    in_flight.pop(token, None)
                    if probes is not None:
                        probes.collects.inc()
                        probes.in_flight.set(float(len(in_flight)))
                    if error is not None:
                        ts.store.discard(job)
                        fail_job(
                            ts,
                            job,
                            worker_id,
                            reason="exception",
                            lost=t1 - t0,
                            t=t1,
                            error=error,
                        )
                    else:
                        if ts.faults is not None:
                            ts.faults.record_success(job)
                        ts.store.put(job.trial_id, job.resource, state)
                        record_report(
                            ts.result,
                            ts.study,
                            job,
                            loss,
                            t1,
                            ts.done_resource,
                            ts.bracket_snapshot,
                        )
                        if ts.hub:
                            ts.hub.emit(
                                EventKind.REPORT,
                                time=t1,
                                trial_id=job.trial_id,
                                job_id=job.job_id,
                                worker_id=worker_id,
                                rung=job.rung,
                                bracket=job.bracket,
                                loss=loss,
                                resource=job.resource,
                                busy=t1 - t0,
                            )

        workers = [
            threading.Thread(target=worker, args=(i,), daemon=True)
            for i in range(self.num_workers)
        ]
        threads = list(workers)
        if retry_policy is not None and retry_policy.timeout is not None:
            threads.append(threading.Thread(target=watchdog, daemon=True))
        for t in threads:
            t.start()
        # All worker joins share one deadline: the run may not take longer
        # than time_limit (plus the grace window below) no matter how many
        # workers there are.  The watchdog has nothing to watch once they
        # have returned, so it is only joined after the stop flag is up —
        # raised before the grace joins so that pollers exit instead of
        # sleeping through their next poll.
        deadline = start + time_limit
        for t in workers:
            t.join(timeout=max(deadline - _time.monotonic(), 0.0))
        stop.set()
        grace_deadline = _time.monotonic() + self.shutdown_grace
        for t in threads:
            t.join(timeout=max(grace_deadline - _time.monotonic(), 0.0))
        elapsed = clock()
        results = []
        for ts in states:
            ts.result.elapsed = elapsed
            ts.result.utilization = min(
                ts.busy / (self.num_workers * max(elapsed, 1e-9)), 1.0
            )
            ts.study.finalize()  # journal durability: flush + fsync
            if ts.hub:
                ts.result.telemetry = ts.hub.finalize(
                    elapsed=max(elapsed, 1e-9), num_workers=self.num_workers
                )
            results.append(ts.result)
        return results
