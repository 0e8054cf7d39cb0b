"""The simulated distributed cluster the evaluation runs on.

The paper's experiments ran on 16-500 real workers; scheduler behaviour,
however, depends only on the *ordering and timing* of job completions, so a
discrete-event simulation reproduces it exactly (the paper itself evaluates
straggler/drop robustness with simulated workloads in Appendix A.1).  The
simulator models:

* ``num_workers`` identical workers pulling jobs from the scheduler whenever
  they are free;
* **stragglers**: each job's duration is its objective-model cost multiplied
  by ``(1 + |z|)``, ``z ~ N(0, straggler_std)`` — the paper's model;
* **dropped jobs**: "a given p probability that a job will be dropped at
  each time unit", i.e. geometric drop times; a job of duration T survives
  with probability ``(1 - p)**T``;
* **checkpointed resume** through :class:`~repro.backend.checkpoint.CheckpointStore`;
* **fault tolerance** (opt-in): pass a
  :class:`~repro.backend.faults.RetryPolicy` to :meth:`SimulatedCluster.run`
  and failed jobs are re-dispatched with exponential backoff, jobs running
  past ``timeout_factor x`` their nominal cost are killed and retried, and
  trials that keep failing are quarantined instead of poisoning the search.

A worker that receives no job stays idle and is re-polled after the next
event — synchronous schedulers therefore waste exactly the worker-time their
rung barriers imply, with no simulation artefacts.

Since the multiplexer PR the event loop is *steppable*: all per-study state
lives in a :class:`SimRun`, events carry their owning run in the payload,
and :func:`drive_runs` delivers events from one
:class:`~repro.backend.events.EventQueue` to whichever run owns them.
:meth:`SimulatedCluster.run` drives a single run over a private queue —
byte-identical to the historical inline loop — while
:class:`~repro.study.multiplex.StudyMultiplexer` drives thousands of runs
over one shared queue (a shared simulated clock) without changing any
study's observable bytes.
"""

from __future__ import annotations

import gc
import heapq
import math
from collections import deque
from functools import partial
from typing import Callable

import numpy as np

from ..core.scheduler import Scheduler
from ..core.types import Job, Measurement
from ..objectives.base import Objective
from ..study import Study
from ..telemetry import EventKind, TelemetryHub, runtime
from ..telemetry.tracing import TraceBuilder
from .checkpoint import CheckpointStore
from .events import EventQueue
from .faults import FaultManager, RetryPolicy
from .trial_runner import BackendResult, FailureRecord

__all__ = ["SimRun", "SimulatedCluster", "drive_runs"]


#: Event kinds that carry one attempt (and go stale once it has ended).
_JOB_EVENT_KINDS = frozenset(("complete", "drop", "timeout"))


class _Attempt:
    """One dispatch of a job: what its calendar events and thread hand-offs carry.

    A retried job is re-issued verbatim under its job id, so the attempt,
    not the id, tells one dispatch from the next.  ``index`` is its slot in
    :attr:`SimRun.live` while it runs and ``-1`` once it has ended, which is
    what makes an event still carrying it stale.  ``planned`` is how long it
    runs unless killed, ``inf`` until the clock knows: the simulator's
    :meth:`SimRun._start` draws it, a wall clock learns it when the thread
    returns.
    """

    __slots__ = ("job", "worker", "started", "planned", "index")

    def __init__(self, job: Job, worker: int, started: float, index: int) -> None:
        self.job = job
        self.worker = worker
        self.started = started
        self.planned = math.inf
        self.index = index

    def worked(self, until: float) -> float:
        """Busy time spent by ``until``: never more than its planned duration."""
        return min(max(until - self.started, 0.0), self.planned)


class SimRun:
    """One study's complete event-loop state, steppable from outside.

    All the bookkeeping :meth:`SimulatedCluster.run` historically kept in
    closures — free workers, in-flight dispatches, worked time, fault
    routing — lives here, so a driver can interleave *many* runs over one
    shared :class:`~repro.backend.events.EventQueue`.  Every event a run
    pushes carries ``(run, payload)``; :func:`drive_runs` peeks the owner
    and hands the event back to :meth:`dispatch`.

    The run keeps its own ``clock`` (the time of the last event it
    processed) rather than reading the shared queue's: during this run's
    processing the two are equal, and between events other runs advance the
    shared clock without touching this run's accounting — which is what
    keeps a multiplexed study's records byte-identical to a solo run.

    ``fill_cap`` bounds how many jobs one :meth:`fill_round` dispatches, so
    a driver can round-robin fills across runs (the multiplexer's
    fair-share knob); ``None`` fills every free worker in one round, the
    solo behaviour.  What depends on the clock is a hook (:meth:`_start`,
    :meth:`_release`), which is all the wall-clock
    :class:`~repro.backend.threaded.ThreadPoolBackend` overrides.
    """

    #: The :class:`RetryPolicy` deadline fields this clock honours and refuses.
    deadline_fields = ("timeout_factor", "timeout")

    def __init__(
        self,
        cluster: "SimulatedCluster",
        scheduler: Scheduler | Study,
        objective: Objective,
        *,
        queue: EventQueue,
        time_limit: float,
        max_resource: float | None = None,
        max_measurements: int | None = None,
        stop_on_first_completion: bool = False,
        telemetry: TelemetryHub | None = None,
        retry_policy: RetryPolicy | None = None,
        trace: bool = False,
        fill_cap: int | None = None,
    ):
        if time_limit <= 0:
            raise ValueError(f"time_limit must be positive, got {time_limit}")
        if fill_cap is not None and fill_cap < 1:
            raise ValueError(f"fill_cap must be >= 1, got {fill_cap}")
        honoured, refused = self.deadline_fields
        if getattr(retry_policy, refused, None) is not None:
            raise ValueError(
                f"RetryPolicy.{refused} is never enforced on this backend's clock; "
                f"set RetryPolicy.{honoured} instead"
            )
        self.cluster = cluster
        self.queue = queue
        self.objective = objective
        self.time_limit = time_limit
        self.max_measurements = max_measurements
        self.stop_on_first_completion = stop_on_first_completion
        self.fill_cap = fill_cap
        self.done_resource = (
            max_resource if max_resource is not None else objective.max_resource
        )
        self.store = CheckpointStore()
        self.result = BackendResult()
        # A bare scheduler gets an unjournalled Study, so there is one code
        # path; ``trace`` reads the hub's MetricsCollector's builder, or
        # rides a TraceBuilder of its own on the hub (made if absent).
        self.study = study = scheduler if isinstance(scheduler, Study) else Study(scheduler)
        hub = telemetry if telemetry is not None else study.telemetry
        self.tracer = None
        if trace:
            collector = hub.metrics
            if collector is not None:
                self.tracer = collector.builder
            else:
                self.tracer = TraceBuilder()
                if not hub:
                    hub = TelemetryHub()
                hub.add_sink(self.tracer)
        if telemetry is not None or trace:
            study.attach_telemetry(hub)
        self.hub = self.store.telemetry = hub
        # A snapshot-restored study arrives with trials already trained;
        # give their checkpoints lazy placeholders (no-op for fresh runs).
        self.store.seed_from_trials(self.study.trials)
        # Workers have stable identities so telemetry can attribute busy
        # time; the lowest-numbered free worker always takes the next job,
        # which keeps the assignment deterministic.  Churned workers retire
        # their id; rejoining workers get a fresh one.
        self.free_ids: list[int] = list(range(cluster.num_workers))
        self.next_worker_id = cluster.num_workers
        self.busy_time = 0.0
        #: Running attempts, swap-removed as they end, so churn picks a
        #: uniform random victim in O(1) with one ``rng.integers(len)`` draw.
        self.live: list[_Attempt] = []
        self.faults = FaultManager(retry_policy) if retry_policy is not None else None
        self.retry_policy = retry_policy
        # Duck-typed objectives in tests may not subclass Objective.
        self.nominal_cost = getattr(objective, "nominal_cost", objective.cost)
        # Created by the first retry: an empty deque is 760 bytes a run.
        self.pending_retries: deque[tuple[Job, int]] | None = None
        # None: every increment trains here, at its completion event.  A
        # ProcessPoolBackend's pool trains it in a worker from dispatch — the
        # completion *time* never depends on the loss — and the completion
        # takes that result in place of the ``train`` call.
        self.pool = cluster._training_pool(objective)
        #: Time of the last event this run processed (== the shared queue
        #: clock while this run's events are being handled).
        self.clock = 0.0
        #: No further events of this run will be processed (budget
        #: exhausted, measurement cap, or first-completion stop); the
        #: driver discards its stale queue entries lazily.
        self.done = False
        self.budget_exhausted = False
        #: Multiplexer probe bundle (``runtime.probes("mux")``) and its tick
        #: box — installed by StudyMultiplexer.run() when a runtime registry
        #: is live, None otherwise.  ``last_dispatch_tick`` is the
        #: shared-clock tick of this run's most recent dispatch; the
        #: starvation-age gauges are computed from it at scrape time.
        self.obs = None
        self.tick_box: list[int] | None = None
        self.last_dispatch_tick = 0
        # None unless a runtime registry is installed (repro.telemetry.runtime).
        bundle, backend = cluster.probes_as
        self.retry_probes = runtime.probes(bundle, backend=backend)

    # --------------------------------------------------------- event wiring

    def _push(self, time: float, kind: str, payload=None) -> None:
        """Schedule one of this run's events on the (possibly shared) queue."""
        self.queue.push(time, kind, (self, payload))

    def begin(self) -> None:
        """Zero the telemetry clock; the driver requests the first fill."""
        if self.hub:
            self.hub.set_time(0.0)

    def schedule_churn(self) -> None:
        cluster = self.cluster
        if cluster.churn_rate > 0:
            gap = float(cluster.rng.exponential(1.0 / cluster.churn_rate))
            self._push(self.clock + gap, "churn", None)

    # ------------------------------------------------------------- dispatch

    def launch(self, job: Job, worker: int, number: int) -> None:
        """Dispatch ``job`` to ``worker`` as its trial's ``number``-th consecutive try."""
        self.result.jobs_dispatched += 1
        live = self.live
        attempt = _Attempt(job, worker, self.clock, len(live))
        live.append(attempt)
        self.store.prepare(job)  # snapshot donor state for inheriting jobs
        self._start(attempt)
        if self.hub:
            extra = {"attempt": number} if number > 1 else {}
            self.hub.emit(
                EventKind.JOB_STARTED,
                trial_id=job.trial_id,
                job_id=job.job_id,
                worker_id=worker,
                rung=job.rung,
                bracket=job.bracket,
                resource=job.resource,
                checkpoint_resource=job.checkpoint_resource,
                **extra,
            )

    def _start(self, attempt: _Attempt) -> None:
        """Plan ``attempt``'s duration and put its end on the calendar."""
        cluster = self.cluster
        store = self.store
        job = attempt.job
        duration = cluster._duration(store.job_cost(job, self.objective))
        drop_at = cluster._drop_time(duration)
        if drop_at is not None:
            attempt.planned = drop_at
            self._push(self.clock + drop_at, "drop", attempt)
        else:
            attempt.planned = duration
            self._push(self.clock + duration, "complete", attempt)
        if self.retry_policy is not None:
            deadline = self.retry_policy.sim_deadline(
                self.nominal_cost(job.config, store.start_resource(job), job.resource)
            )
            if deadline is not None:
                self._push(self.clock + deadline, "timeout", attempt)
        # A job whose result the journal already holds needs no speculative
        # training (the pool would otherwise fork for nothing).
        if self.pool is not None and not self.study.has_cached_loss(job.job_id):
            self.pool.prefetch(job, *store.starting_state(job, self.objective, peek=True))

    def _release(self, worker: int) -> None:
        """A timed-out attempt's ``worker`` may take the next job now."""
        heapq.heappush(self.free_ids, worker)

    def fill_round(self) -> bool:
        """Fill free workers: queued retries first, then one ask per worker.

        Algorithm 2's master loop: retries drain in FIFO order, then the
        study is asked once for each remaining free worker, and each job is
        launched before the next ask — so a hub sees the scheduler's
        ``trial_started`` and the dispatch's ``job_started`` interleaved in
        per-job order (``seq`` is assigned at emit time).  A ``None`` ask
        means a rung barrier or a finished search.

        At most ``fill_cap`` jobs are dispatched per round (``None`` —
        every free worker).  Returns ``True`` when the cap cut the round
        short with free workers remaining — the caller should offer other
        runs a turn and then come back (the multiplexer's round-robin
        fairness).  Chunked rounds are byte-identical to one unbounded
        fill: the asks are the same calls in the same order.
        """
        free_ids = self.free_ids
        study = self.study
        cap = self.fill_cap
        budget = len(free_ids) if cap is None else min(cap, len(free_ids))
        faults = self.faults
        obs = self.obs
        dispatched_before = self.result.jobs_dispatched
        while free_ids and self.pending_retries and budget > 0:
            job, number = self.pending_retries.popleft()
            budget -= 1
            self.launch(job, heapq.heappop(free_ids), number)
        starved = False
        while free_ids and budget > 0:
            if study.is_done():
                break
            job = study.ask()
            if job is None:
                starved = True
                break
            number = 1 if faults is None else faults.attempt_number(job)
            budget -= 1
            self.launch(job, heapq.heappop(free_ids), number)
        if starved and self.hub and free_ids:
            self.hub.emit(EventKind.WORKER_IDLE, free_workers=len(free_ids))
        capped = budget == 0 and bool(free_ids)
        if obs is not None:
            dispatched = self.result.jobs_dispatched - dispatched_before
            if dispatched:
                obs.dispatches.inc(dispatched)
                self.last_dispatch_tick = self.tick_box[0]
            if capped:
                obs.throttles.inc()
        return capped

    # ------------------------------------------------------------ teardown

    def _end(self, attempt: _Attempt, until: float = math.inf) -> float:
        """Retire ``attempt``, which worked until ``until`` (its end, by default).

        Returns the busy time it spent, which the run's ``busy_time`` adds up.
        """
        live = self.live
        last = live.pop()
        if last is not attempt:
            live[attempt.index] = last
            last.index = attempt.index
        attempt.index = -1
        worked = attempt.worked(until)
        self.busy_time += worked
        return worked

    def kill(self, attempt: _Attempt, reason: str) -> None:
        """Tear down a running attempt killed now, and route its failure."""
        lost = self._end(attempt, self.clock)
        self._discard(attempt.job)
        self.handle_failure(attempt, reason, lost)

    def _discard(self, job: Job) -> None:
        """``job``'s dispatch will never complete: drop its snapshot and prefetch."""
        self.store.discard(job)
        if self.pool is not None:
            self.pool.discard(job)

    def handle_failure(
        self, attempt: _Attempt, reason: str, lost: float, error: str | None = None
    ) -> None:
        """Route one ended attempt that failed after working ``lost``.

        Without a fault manager the job is forfeited to the study.  With
        one, the manager decides: a retry re-dispatches the same job after
        its backoff, as a queued ``retry`` event; an abandon quarantines the
        trial.
        """
        job = attempt.job
        study = self.study
        hub = self.hub
        time = self.clock
        payload: dict = {"reason": reason}
        if self.faults is None:
            decision = None
            action = "forfeited"
            study.on_job_failed(job)
        else:
            decision = self.faults.record_failure(job, reason=reason)
            action = "retried" if decision.retry else "abandoned"
            payload.update(attempt=decision.failures, lost=lost)
        if error is not None:
            payload["error"] = error
        self.result.failure_log.append(
            FailureRecord(
                time=time,
                trial_id=job.trial_id,
                job_id=job.job_id,
                reason=reason,
                action=action,
                attempt=payload.get("attempt", 1),
                error=error,
                lost=lost,
            )
        )
        if hub:
            hub.emit(
                EventKind.JOB_TIMEOUT if reason == "timeout" else EventKind.JOB_FAILED,
                trial_id=job.trial_id,
                job_id=job.job_id,
                worker_id=attempt.worker,
                rung=job.rung,
                bracket=job.bracket,
                **payload,
            )
        if decision is None:
            return
        if decision.retry:
            if self.retry_probes is not None:
                self.retry_probes.retries.inc()
            study.on_job_requeued(job)
            if hub:
                hub.emit(
                    EventKind.JOB_RETRIED,
                    trial_id=job.trial_id,
                    job_id=job.job_id,
                    rung=job.rung,
                    bracket=job.bracket,
                    attempt=decision.failures + 1,
                    delay=decision.delay,
                    retry_at=time + decision.delay,
                )
            self._push(time + decision.delay, "retry", (job, decision.failures + 1))
        else:
            study.on_trial_abandoned(job)
            if hub:
                hub.emit(
                    EventKind.TRIAL_ABANDONED,
                    trial_id=job.trial_id,
                    job_id=job.job_id,
                    rung=job.rung,
                    bracket=job.bracket,
                    failures=decision.failures,
                    reason=reason,
                )

    def _complete(self, attempt: _Attempt) -> None:
        """``attempt`` trained to its end: tell the study its loss and log it."""
        job = attempt.job
        worked = self._end(attempt)
        heapq.heappush(self.free_ids, attempt.worker)
        study = self.study
        loss = study.cached_loss(job)
        if loss is not None:
            # Replay: the journal's next record is this job's tell — reuse
            # the loss, skip training, keep the checkpoint/restore
            # bookkeeping identical.
            self.store.replay_job(job)
        else:
            trained = None if self.pool is None else partial(self.pool.take, job)
            try:
                loss = self.store.run_job(job, self.objective, trained)
            except Exception as exc:  # noqa: BLE001 — training crashed
                self._discard(job)
                self.handle_failure(attempt, "exception", worked, repr(exc))
                return
        if self.faults is not None:
            self.faults.record_success(job)
        # The study journals the tell before the scheduler sees it
        # (write-ahead); the backend keeps its own timestamped log.
        time = self.clock
        result = self.result
        study.tell(job, loss, time=time)
        result.measurements.append(
            Measurement(trial_id=job.trial_id, resource=job.resource, loss=loss, time=time)
        )
        result.bracket_snapshots.append(study.scheduler.completed_brackets)
        if self.done_resource is not None and job.resource >= self.done_resource:
            result.completions.append((time, job.trial_id))
        if self.hub:
            self.hub.emit(
                EventKind.REPORT,
                trial_id=job.trial_id,
                job_id=job.job_id,
                worker_id=attempt.worker,
                rung=job.rung,
                bracket=job.bracket,
                loss=loss,
                resource=job.resource,
            )

    # -------------------------------------------------------------- events

    def dispatch(self, event) -> bool:
        """Process one delivered event; returns whether a fill is wanted.

        Churn/rejoin/retry events re-fill and return.  Job events — whose
        attempt the driver's head check guarantees is still running — end
        in a completion or a failure, then the stop conditions (measurement
        cap, first completion) are checked *before* re-filling.
        """
        self.clock = event.time
        hub = self.hub
        if hub:
            # NULL_HUB is falsy: skip even the no-op call, it runs once per
            # event in the hottest loop of the simulator.
            hub.set_time(event.time)
        kind = event.kind
        cluster = self.cluster
        if kind == "churn":
            live = self.live
            # With every worker away already, nobody fails and nobody rejoins.
            if live or self.free_ids:
                if live:
                    # Kill a random busy worker: its job fails, its id retires.
                    self.kill(live[cluster.rng.integers(len(live))], "churn")
                else:
                    heapq.heappop(self.free_ids)  # an idle worker goes away instead
                self._push(self.clock + max(cluster.churn_downtime, 1e-9), "rejoin", None)
            self.schedule_churn()
            return True
        if kind == "rejoin":
            worker = event.payload[1]
            if worker is None:  # a churned worker comes back under a fresh id
                worker = self.next_worker_id
                self.next_worker_id += 1
            heapq.heappush(self.free_ids, worker)
            return True
        if kind == "retry":
            if self.pending_retries is None:
                self.pending_retries = deque()
            self.pending_retries.append(event.payload[1])
            return True
        attempt = event.payload[1]
        if kind == "complete":
            self._complete(attempt)
        elif kind == "timeout":
            self._release(attempt.worker)
            self.kill(attempt, "timeout")
        else:  # drop
            lost = self._end(attempt)
            heapq.heappush(self.free_ids, attempt.worker)
            self._discard(attempt.job)
            self.handle_failure(attempt, "dropped", lost)
        result = self.result
        if (
            self.max_measurements is not None
            and len(result.measurements) >= self.max_measurements
        ):
            self.done = True
            return False
        if self.stop_on_first_completion and result.completions:
            self.done = True
            return False
        return True

    # ------------------------------------------------------------ lifecycle

    def close(self) -> None:
        """Tear down the training pool and make the journal durable."""
        if self.pool is not None:
            self.pool.close()
        # End-of-run durability for the journal (flush + fsync); a crash
        # after this point can never lose recorded interactions.
        self.study.finalize()

    def finish(self) -> BackendResult:
        """Final accounting once no more of this run's events will fire."""
        result = self.result
        # Only an over-budget event means the search consumed the whole
        # budget; draining the queue or stopping early (measurement cap,
        # first completion) ends the run at this run's own clock.
        result.elapsed = (
            self.time_limit if self.budget_exhausted else min(self.clock, self.time_limit)
        )
        # Attempts still running at the end worked until the stop clock.
        busy_time = self.busy_time
        for attempt in self.live:
            busy_time += attempt.worked(result.elapsed)
        horizon = max(result.elapsed, 1e-12)
        result.utilization = min(
            busy_time / (self.cluster.num_workers * horizon), 1.0
        )
        if self.hub:
            self.hub.set_time(result.elapsed)
            result.telemetry = self.hub.finalize(
                elapsed=result.elapsed, num_workers=self.cluster.num_workers
            )
        if self.tracer is not None:
            result.trace = self.tracer.build()
        return result


def _drain_fills(ring: deque) -> None:
    """Round-robin the pending fill requests until every run is satisfied.

    Runs re-enter the ring while their ``fill_cap`` cuts a round short, so
    no study dispatches more than a cap's worth of jobs while another is
    waiting — the multiplexer's fair-share guarantee.  The whole drain
    happens at one simulated instant (before the next event pop), which is
    why chunked fills cannot change any study's observable behaviour.
    """
    while ring:
        run = ring.popleft()
        if run.done:
            continue
        if run.fill_round():
            ring.append(run)


def drive_runs(
    queue: EventQueue,
    runs: list[SimRun],
    *,
    on_tick: Callable[[], None] | None = None,
    wait: Callable[[float | None], bool] | None = None,
) -> None:
    """Deliver events from ``queue`` to their owning runs until all finish.

    The startup sequence preserves each run's solo event order: every run's
    initial fill happens (round-robin, fair-share-capped) before any churn
    is scheduled, exactly as ``try_fill(); schedule_churn()`` did inline.
    After that, the loop peeks the head event, discards it if its run is
    finished or the attempt it carries has since ended (without
    advancing the clock, so a far-future stale completion neither extends
    any run nor counts as pending work), retires the run if the event is
    past its time budget, and otherwise delivers it.

    ``on_tick`` runs after each delivered event (and its fills) — the
    multiplexer's group-commit hook.  ``wait(until)`` is a wall clock's:
    it blocks until the next live event's time (``None``: none is due) and
    says whether it put an event of its own on the calendar meanwhile.

    The cyclic-garbage collector is paused for the duration of the loop: it
    allocates heavily (jobs, events, measurements) but creates no cycles
    that need collecting mid-run, and the collector's young-generation
    passes cost ~20% of wall time at 100-worker scale.  Scoped and restored
    in ``finally`` — callers that already disabled gc (or nested runs) are
    left untouched, and everything deferred is swept on the next collection
    after re-enable.  Not under a ``wait``: that time is other threads' training.
    """
    gc_was_enabled = gc.isenabled() and wait is None
    if gc_was_enabled:
        gc.disable()
    try:
        ring: deque[SimRun] = deque()
        for run in runs:
            run.begin()
            ring.append(run)
        _drain_fills(ring)
        for run in runs:
            run.schedule_churn()
        active = len(runs)
        while active:
            if not queue:
                if wait is not None and wait(None):
                    continue
                break
            head = queue.peek()
            assert head is not None
            run = head.payload[0]
            if run.done:
                queue.discard_next()
                continue
            if head.kind in _JOB_EVENT_KINDS and head.payload[1].index < 0:
                # The attempt this event belonged to was churned or timed
                # out: the event is dead.  Discard it without advancing the
                # clock.
                queue.discard_next()
                continue
            if wait is not None and wait(head.time):
                continue
            if head.time > run.time_limit:
                run.budget_exhausted = True
                run.done = True
                active -= 1
                if not active:
                    break
                queue.discard_next()
                continue
            event = queue.pop()
            if run.dispatch(event):
                ring.append(run)
                _drain_fills(ring)
            elif run.done:
                active -= 1
                if not active:
                    break
            if on_tick is not None:
                on_tick()
    finally:
        if gc_was_enabled:
            gc.enable()


class SimulatedCluster:
    """Discrete-event cluster executing one hyperparameter search.

    Parameters
    ----------
    num_workers:
        Parallel workers (1 reproduces the sequential setting of Section 4.1).
    straggler_std:
        Standard deviation of the ``(1 + |z|)`` duration multiplier; 0
        disables stragglers.
    drop_probability:
        Per-time-unit probability a running job is dropped.
    churn_rate:
        Expected worker-failure events per time unit across the cluster:
        at exponential intervals a worker dies — killing its in-flight job
        (reported to the scheduler as a failure) — and rejoins after
        ``churn_downtime``; an event finding every worker away is a no-op.
        0 disables churn.
    churn_downtime:
        How long a churned worker stays away before rejoining.
    seed:
        Seed for the cluster's own randomness (stragglers/drops) — kept
        separate from the scheduler's RNG so the same search can be replayed
        under different failure conditions.
    """

    #: Runtime probe bundle and ``backend`` label its runs' retries count in.
    probes_as = ("retries", "simulation")

    def __init__(
        self,
        num_workers: int,
        *,
        straggler_std: float = 0.0,
        drop_probability: float = 0.0,
        churn_rate: float = 0.0,
        churn_downtime: float = 0.0,
        seed: int = 0,
    ):
        if num_workers < 1:
            raise ValueError(f"num_workers must be >= 1, got {num_workers}")
        if straggler_std < 0:
            raise ValueError(f"straggler_std must be >= 0, got {straggler_std}")
        if not 0 <= drop_probability < 1:
            raise ValueError(f"drop_probability must be in [0, 1), got {drop_probability}")
        if churn_rate < 0 or churn_downtime < 0:
            raise ValueError("churn_rate and churn_downtime must be >= 0")
        self.num_workers = num_workers
        self.straggler_std = straggler_std
        self.drop_probability = drop_probability
        self.churn_rate = churn_rate
        self.churn_downtime = churn_downtime
        self.rng = np.random.default_rng(seed)

    def _training_pool(self, objective: Objective) -> None:  # noqa: ARG002
        """Worker processes for one run's training: none — see :attr:`SimRun.pool`."""
        return None

    # ----------------------------------------------------------------- run

    def run(
        self,
        scheduler: Scheduler | Study,
        objective: Objective,
        *,
        time_limit: float,
        max_resource: float | None = None,
        max_measurements: int | None = None,
        stop_on_first_completion: bool = False,
        telemetry: TelemetryHub | None = None,
        retry_policy: RetryPolicy | None = None,
        trace: bool = False,
    ) -> BackendResult:
        """Drive ``scheduler`` against ``objective`` until the clock runs out.

        ``scheduler`` may be a bare :class:`~repro.core.Scheduler` (wrapped
        in an unjournalled :class:`~repro.study.Study` internally) or a
        :class:`~repro.study.Study` — journal-backed for crash safety, or
        armed for replay by :meth:`~repro.study.Study.resume`, in which case
        journalled training is skipped and the recorded losses reused.  The
        event loop itself only ever talks to the study's ask/tell surface.

        Parameters
        ----------
        time_limit:
            Simulated-time budget; jobs finishing after it are discarded.
        max_resource:
            Resource counting as "trained to completion" for the
            :attr:`BackendResult.completions` log (defaults to the
            objective's ``max_resource``).
        max_measurements:
            Optional hard cap on reported results (guards runaway tests).
        stop_on_first_completion:
            End the simulation at the first max-resource completion (the
            Figure 8 "time until first configuration trained for R" metric).
        telemetry:
            Optional :class:`~repro.telemetry.TelemetryHub`; when given it is
            attached to the scheduler and checkpoint store, every lifecycle
            event is emitted with the simulated clock, and the run's
            :class:`~repro.telemetry.MetricsReport` lands on
            :attr:`BackendResult.telemetry`.  Event timestamps are purely
            simulation-driven, so seeded runs emit identical streams.
        retry_policy:
            Optional :class:`~repro.backend.faults.RetryPolicy`.  Without
            one, every failure is forfeited to the scheduler exactly as
            before (``on_job_failed``) and the telemetry stream is untouched.
            With one, a failed job (drop, churn, timeout, or training crash)
            is re-dispatched verbatim after its backoff — the scheduler sees
            ``on_job_requeued`` and the job stays in flight — until the
            trial's consecutive-failure count reaches
            ``retry_policy.max_attempts``, at which point the trial is
            quarantined via ``on_trial_abandoned``.  When
            ``retry_policy.timeout_factor`` is set, each dispatch also gets a
            deadline of ``timeout_factor x`` the objective's *nominal* cost
            for the increment; jobs running past it (stragglers, injected
            hangs) are killed, the worker is freed, and the failure is
            retry-eligible like any other.
        trace:
            Reconstruct the run's span/timeline trace (opt-in, like
            ``telemetry``): the hub's :class:`~repro.telemetry.MetricsCollector`
            already builds one, and the report is read off it; without a
            collector a :class:`~repro.telemetry.TraceBuilder` is attached as a
            sink (a hub is created if none was given).  The finished
            :class:`~repro.telemetry.Trace` lands on :attr:`BackendResult.trace`.
            Purely observational — scheduling, RNG draws and timing are
            untouched.
        """
        queue = EventQueue()
        state = SimRun(
            self,
            scheduler,
            objective,
            queue=queue,
            time_limit=time_limit,
            max_resource=max_resource,
            max_measurements=max_measurements,
            stop_on_first_completion=stop_on_first_completion,
            telemetry=telemetry,
            retry_policy=retry_policy,
            trace=trace,
        )
        try:
            drive_runs(queue, [state])
        finally:
            state.close()
        return state.finish()

    # ------------------------------------------------------------ physics

    def _duration(self, cost: float) -> float:
        """Job duration: cost stretched by the straggler multiplier."""
        if cost <= 0:
            return 1e-9  # zero-cost jobs still take an instant, keeping event order sane
        if self.straggler_std == 0:
            return cost
        z = self.rng.normal(0.0, self.straggler_std)
        return cost * (1.0 + abs(z))

    def _drop_time(self, duration: float) -> float | None:
        """Geometric drop time, or ``None`` if the job survives.

        A job running for ``duration`` time units survives with probability
        ``(1 - p)**duration``; conditional on dropping, the drop time is the
        (continuous) geometric first-failure time.
        """
        if self.drop_probability == 0:
            return None
        u = self.rng.random()
        survive = (1.0 - self.drop_probability) ** duration
        if u < survive:
            return None
        # Invert the continuous survival function at u (u >= survive here).
        t = math.log(u) / math.log(1.0 - self.drop_probability)
        return min(max(t, 1e-9), duration)
