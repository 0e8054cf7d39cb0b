"""Trace reconstruction: spans, timelines and critical paths from events.

The telemetry layer answers "what happened"; this module answers **"where
did the time go?"** — the question behind every timing claim in the paper
(linear speedups, high utilisation, straggler robustness; Sections 4-5,
Figures 7-8).  A :class:`TraceBuilder` consumes the flat
:class:`~repro.telemetry.events.TelemetryEvent` stream — live, as a sink on
a :class:`~repro.telemetry.TelemetryHub`, or offline from a JSONL export —
and reconstructs:

* **per-trial span trees** — a :class:`TrialTrace` per trial: its sampled
  config, every dispatch as an :class:`AttemptSpan` (worker attribution,
  outcome, loss), retry/backoff intervals, promotions and rung residency;
* **per-worker timelines** — a :class:`WorkerTimeline` per worker with
  busy/idle segmentation derived from the attempts it executed;
* **a Chrome trace-event export** (:meth:`Trace.to_chrome_trace`) that
  loads in ``chrome://tracing`` / Perfetto: workers as rows, jobs as
  duration events, promotions/failures/timeouts as instant events;
* **critical-path attribution** (:meth:`Trace.critical_path`) — the
  incumbent trial's end-to-end latency decomposed into contiguous segments
  (compute, queue wait, retry backoff, straggler delay, failure loss) that
  sum exactly to the observed latency;
* **straggler and utilisation reports** (:meth:`Trace.straggler_report`,
  :meth:`Trace.utilization_report`) — per-worker slowdown factors echoing
  Figure 7, and busy/idle-gap accounting.

Everything is a pure fold over the event stream: replaying a recorded JSONL
file yields the identical trace (and byte-identical Chrome JSON) as the
live run that produced it.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from typing import IO, Any, Iterable

from .events import EventKind, TelemetryEvent

__all__ = [
    "AttemptSpan",
    "TrialTrace",
    "WorkerSegment",
    "WorkerTimeline",
    "CriticalPathSegment",
    "CriticalPath",
    "WorkerStats",
    "Trace",
    "TraceBuilder",
    "events_from_jsonl",
    "validate_chrome_trace",
]

#: Segment kinds a critical path is decomposed into.  ``compute`` is time a
#: worker spent producing a result the trial kept; ``straggler_delay`` is
#: time burnt on attempts killed by a deadline (a straggling or hung
#: worker); ``failure_lost`` covers attempts lost to drops/churn/crashes;
#: ``retry_backoff`` is policy-imposed waiting between a failure and its
#: re-dispatch becoming eligible; ``queue_wait`` is everything else the
#: trial spent waiting for a worker (including rung-promotion waits).
CRITICAL_PATH_KINDS = (
    "compute",
    "queue_wait",
    "retry_backoff",
    "straggler_delay",
    "failure_lost",
)

_FAILURE_KINDS = (EventKind.JOB_FAILED, EventKind.JOB_TIMEOUT)


@dataclass(slots=True)
class AttemptSpan:
    """One dispatch of one job: worker-attributed, with its outcome.

    ``outcome`` is ``"completed"`` for a successful report, the failure
    reason (``"dropped"``, ``"churn"``, ``"exception"``, ``"timeout"``) for
    a failed attempt, and ``"running"`` for a dispatch still in flight when
    the stream ended (its ``end`` is then the run horizon).
    """

    trial_id: int
    job_id: int
    attempt: int
    start: float
    end: float | None = None
    worker_id: int | None = None
    rung: int | None = None
    bracket: int | None = None
    outcome: str = "running"
    loss: float | None = None
    resource: float | None = None
    checkpoint_resource: float | None = None
    error: str | None = None

    @property
    def duration(self) -> float:
        return (self.end - self.start) if self.end is not None else 0.0

    @property
    def completed(self) -> bool:
        return self.outcome == "completed"


@dataclass(slots=True)
class TrialTrace:
    """Span tree of one trial: lifetime, attempts, promotions, backoffs."""

    trial_id: int
    #: When the scheduler sampled the configuration (``trial_started``);
    #: ``None`` when the stream starts mid-run.
    sampled_at: float | None = None
    config: dict[str, Any] | None = None
    attempts: list[AttemptSpan] = field(default_factory=list)
    #: ``(time, from_rung, to_rung)`` per promotion event (``to_rung`` is
    #: ``None`` for PBT-style exploits, which have no rung ladder).
    promotions: list[tuple[float, int | None, int | None]] = field(default_factory=list)
    #: Retry backoff windows ``(failed_at, ready_at)`` imposed by the policy.
    backoffs: list[tuple[float, float]] = field(default_factory=list)
    abandoned_at: float | None = None
    checkpoint_restores: int = 0

    @property
    def start(self) -> float:
        """Trial birth: sampling time, else first dispatch."""
        if self.sampled_at is not None:
            return self.sampled_at
        return self.attempts[0].start if self.attempts else 0.0

    @property
    def end(self) -> float:
        """Last closed span edge the trial owns."""
        times = [a.end for a in self.attempts if a.end is not None]
        times.extend(t for t, _, _ in self.promotions)
        if self.abandoned_at is not None:
            times.append(self.abandoned_at)
        return max(times) if times else self.start

    def last_report_time(self) -> float | None:
        """Time of the trial's final successful report, if any."""
        done = [a.end for a in self.attempts if a.completed and a.end is not None]
        return max(done) if done else None

    def best_loss(self) -> float | None:
        losses = [a.loss for a in self.attempts if a.completed and a.loss is not None]
        return min(losses) if losses else None

    def rung_residency(self) -> list[tuple[int, float, float]]:
        """``(rung, enter, exit)`` segments: time spent working each rung.

        A trial enters a rung at its first dispatch there and leaves it when
        a dispatch at a higher rung starts (or at its last span edge).
        Attempts without a rung (e.g. PBT) contribute nothing.
        """
        rung_first: dict[int, float] = {}
        for a in self.attempts:
            if a.rung is None:
                continue
            if a.rung not in rung_first or a.start < rung_first[a.rung]:
                rung_first[a.rung] = a.start
        if not rung_first:
            return []
        ordered = sorted(rung_first.items(), key=lambda item: item[1])
        out: list[tuple[int, float, float]] = []
        for i, (rung, enter) in enumerate(ordered):
            leave = ordered[i + 1][1] if i + 1 < len(ordered) else self.end
            out.append((rung, enter, leave))
        return out


@dataclass(frozen=True, slots=True)
class WorkerSegment:
    """One contiguous busy or idle stretch on a worker's timeline."""

    start: float
    end: float
    state: str  # "busy" | "idle"
    trial_id: int | None = None
    job_id: int | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class WorkerTimeline:
    """Busy/idle segmentation of one worker over the run horizon.

    Workers present from the start are measured over ``[0, horizon]``;
    workers that joined later (churn replacements) over
    ``[first dispatch, horizon]``.
    """

    worker_id: int
    segments: list[WorkerSegment] = field(default_factory=list)

    @property
    def busy_time(self) -> float:
        return sum(s.duration for s in self.segments if s.state == "busy")

    @property
    def idle_time(self) -> float:
        return sum(s.duration for s in self.segments if s.state == "idle")

    @property
    def span(self) -> float:
        return self.busy_time + self.idle_time

    def utilization(self) -> float:
        return self.busy_time / self.span if self.span > 0 else 0.0

    def idle_gaps(self) -> list[WorkerSegment]:
        return [s for s in self.segments if s.state == "idle"]


@dataclass(frozen=True)
class CriticalPathSegment:
    """One contiguous slice of a trial's end-to-end latency."""

    start: float
    end: float
    kind: str  # one of CRITICAL_PATH_KINDS
    job_id: int | None = None
    attempt: int | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class CriticalPath:
    """Where one trial's end-to-end latency went, segment by segment.

    Segments are contiguous and partition ``[start, end]``, so their
    durations sum to :attr:`total_latency` exactly (up to float
    associativity) — the invariant the acceptance test pins.
    """

    trial_id: int
    start: float
    end: float
    segments: list[CriticalPathSegment] = field(default_factory=list)

    @property
    def total_latency(self) -> float:
        return self.end - self.start

    def breakdown(self) -> dict[str, float]:
        """Summed duration per segment kind (every kind always present)."""
        out = {kind: 0.0 for kind in CRITICAL_PATH_KINDS}
        for seg in self.segments:
            out[seg.kind] = out.get(seg.kind, 0.0) + seg.duration
        return out


@dataclass(frozen=True)
class WorkerStats:
    """Per-worker straggler statistics (echoing Figure 7's slowdowns)."""

    worker_id: int
    attempts: int
    busy_time: float
    #: Mean time this worker took per unit of resource trained.
    mean_rate: float
    #: ``mean_rate`` over the cluster-median rate: > 1 means a straggler.
    slowdown: float


class Trace:
    """The reconstructed run: trial span trees + worker timelines + reports."""

    def __init__(
        self,
        trials: dict[int, TrialTrace],
        workers: dict[int, WorkerTimeline],
        *,
        elapsed: float,
        num_workers: int,
        events_consumed: int,
    ):
        self.trials = trials
        self.workers = workers
        self.elapsed = elapsed
        self.num_workers = num_workers
        self.events_consumed = events_consumed

    # ----------------------------------------------------------- incumbent

    def incumbent(self) -> int | None:
        """Trial id with the best (lowest) successfully reported loss."""
        best_id: int | None = None
        best_loss = math.inf
        for trial_id in sorted(self.trials):
            loss = self.trials[trial_id].best_loss()
            if loss is not None and loss < best_loss:
                best_loss = loss
                best_id = trial_id
        return best_id

    # -------------------------------------------------------- critical path

    def critical_path(self, trial_id: int | None = None) -> CriticalPath:
        """Decompose a trial's end-to-end latency into attributed segments.

        Defaults to the incumbent trial.  The path runs from the trial's
        birth (sampling) to its final successful report (falling back to its
        last span edge for trials that never completed); every instant in
        between lands in exactly one :class:`CriticalPathSegment`.
        """
        if trial_id is None:
            trial_id = self.incumbent()
        if trial_id is None or trial_id not in self.trials:
            raise ValueError(f"no such trial to attribute: {trial_id!r}")
        trial = self.trials[trial_id]
        start = trial.start
        end = trial.last_report_time()
        if end is None:
            end = trial.end
        segments: list[CriticalPathSegment] = []
        cursor = start
        attempts = sorted(
            (a for a in trial.attempts if a.end is not None and a.start < end),
            key=lambda a: (a.start, a.job_id, a.attempt),
        )
        backoffs = sorted(trial.backoffs)
        for a in attempts:
            if a.start > cursor:
                segments.extend(self._classify_gap(cursor, a.start, backoffs))
                cursor = a.start
            seg_end = min(a.end if a.end is not None else end, end)
            if seg_end > cursor:
                if a.completed:
                    kind = "compute"
                elif a.outcome == "timeout":
                    kind = "straggler_delay"
                else:
                    kind = "failure_lost"
                segments.append(
                    CriticalPathSegment(
                        start=cursor, end=seg_end, kind=kind,
                        job_id=a.job_id, attempt=a.attempt,
                    )
                )
                cursor = seg_end
        if cursor < end:
            segments.extend(self._classify_gap(cursor, end, backoffs))
        return CriticalPath(trial_id=trial_id, start=start, end=end, segments=segments)

    @staticmethod
    def _classify_gap(
        start: float, end: float, backoffs: list[tuple[float, float]]
    ) -> list[CriticalPathSegment]:
        """Split an idle gap into retry-backoff and queue-wait slices."""
        out: list[CriticalPathSegment] = []
        cursor = start
        for failed_at, ready_at in backoffs:
            if ready_at <= cursor or failed_at >= end:
                continue
            boff_start = max(failed_at, cursor)
            boff_end = min(ready_at, end)
            if boff_start > cursor:
                out.append(CriticalPathSegment(cursor, boff_start, "queue_wait"))
            out.append(CriticalPathSegment(boff_start, boff_end, "retry_backoff"))
            cursor = boff_end
            if cursor >= end:
                break
        if cursor < end:
            out.append(CriticalPathSegment(cursor, end, "queue_wait"))
        return out

    # -------------------------------------------------------------- reports

    def straggler_report(self) -> list[WorkerStats]:
        """Per-worker slowdown factors, sorted slowest first.

        Each completed attempt contributes its duration per unit of resource
        trained; a worker's slowdown is its mean rate over the cluster-wide
        median rate.  Only workers with at least one completed attempt
        appear (a worker that only ran killed jobs has no clean rate).
        """
        rates: dict[int, list[float]] = {}
        for trial in self.trials.values():
            for a in trial.attempts:
                if not a.completed or a.worker_id is None or a.end is None:
                    continue
                trained = (a.resource or 0.0) - (a.checkpoint_resource or 0.0)
                if trained <= 0:
                    continue
                rates.setdefault(a.worker_id, []).append(a.duration / trained)
        if not rates:
            return []
        all_rates = sorted(r for worker in rates.values() for r in worker)
        median = all_rates[len(all_rates) // 2]
        out = []
        for worker_id, worker_rates in rates.items():
            mean_rate = sum(worker_rates) / len(worker_rates)
            timeline = self.workers.get(worker_id)
            out.append(
                WorkerStats(
                    worker_id=worker_id,
                    attempts=len(worker_rates),
                    busy_time=timeline.busy_time if timeline else 0.0,
                    mean_rate=mean_rate,
                    slowdown=mean_rate / median if median > 0 else math.nan,
                )
            )
        out.sort(key=lambda s: (-s.slowdown, s.worker_id))
        return out

    def utilization_report(self) -> dict[str, Any]:
        """Cluster busy/idle accounting plus the largest idle gaps."""
        per_worker = {
            w: timeline.utilization() for w, timeline in sorted(self.workers.items())
        }
        busy = sum(t.busy_time for t in self.workers.values())
        span = sum(t.span for t in self.workers.values())
        gaps = [
            (t.worker_id, gap.start, gap.end)
            for t in self.workers.values()
            for gap in t.idle_gaps()
        ]
        gaps.sort(key=lambda g: (g[1] - g[2], g[0], g[1]))  # longest first
        return {
            "elapsed": self.elapsed,
            "num_workers": self.num_workers,
            "busy_time": busy,
            "idle_time": span - busy,
            "cluster_utilization": busy / span if span > 0 else 0.0,
            "worker_utilization": per_worker,
            "largest_idle_gaps": gaps[:10],
        }

    # --------------------------------------------------------- chrome trace

    def to_chrome_trace(self) -> dict[str, Any]:
        """Chrome trace-event (Perfetto-compatible) JSON object.

        Workers are rows (pid 0, one tid per worker), every attempt is a
        complete (``"X"``) duration event, and promotions / failures /
        timeouts / abandonments are instant (``"i"``) events.  One backend
        time unit maps to one trace millisecond (``ts`` is microseconds).
        Event order is metadata first, then strictly ``ts``-sorted — the
        invariant :func:`validate_chrome_trace` checks.
        """

        def us(t: float) -> float:
            return round(t * 1000.0, 6)  # 1 time unit -> 1 ms, ts in us

        meta: list[dict[str, Any]] = [
            {"ph": "M", "pid": 0, "tid": 0, "name": "process_name",
             "args": {"name": "workers"}},
            {"ph": "M", "pid": 1, "tid": 0, "name": "process_name",
             "args": {"name": "scheduler"}},
        ]
        for worker_id in sorted(self.workers):
            meta.append(
                {"ph": "M", "pid": 0, "tid": worker_id, "name": "thread_name",
                 "args": {"name": f"worker {worker_id}"}}
            )
            meta.append(
                {"ph": "M", "pid": 0, "tid": worker_id, "name": "thread_sort_index",
                 "args": {"sort_index": worker_id}}
            )
        events: list[dict[str, Any]] = []
        for trial_id in sorted(self.trials):
            trial = self.trials[trial_id]
            for a in trial.attempts:
                if a.worker_id is None or a.end is None:
                    continue
                args: dict[str, Any] = {
                    "trial_id": a.trial_id, "job_id": a.job_id,
                    "attempt": a.attempt, "outcome": a.outcome,
                }
                if a.loss is not None:
                    args["loss"] = a.loss
                if a.resource is not None:
                    args["resource"] = a.resource
                name = f"trial {a.trial_id}"
                if a.rung is not None:
                    name += f" rung {a.rung}"
                events.append(
                    {"ph": "X", "pid": 0, "tid": a.worker_id, "ts": us(a.start),
                     "dur": us(a.end) - us(a.start),
                     "name": name,
                     "cat": "job" if a.completed else "job,failed",
                     "args": args}
                )
                if not a.completed and a.outcome != "running":
                    events.append(
                        {"ph": "i", "s": "t", "pid": 0, "tid": a.worker_id,
                         "ts": us(a.end),
                         "name": f"{a.outcome}: trial {a.trial_id}",
                         "cat": "fault",
                         "args": {"trial_id": a.trial_id, "job_id": a.job_id,
                                  "attempt": a.attempt}}
                    )
            for time, from_rung, to_rung in trial.promotions:
                events.append(
                    {"ph": "i", "s": "p", "pid": 1, "tid": 0, "ts": us(time),
                     "name": f"promote trial {trial_id}"
                             + (f" -> rung {to_rung}" if to_rung is not None else ""),
                     "cat": "promotion",
                     "args": {"trial_id": trial_id, "from_rung": from_rung,
                              "to_rung": to_rung}}
                )
            if trial.abandoned_at is not None:
                events.append(
                    {"ph": "i", "s": "p", "pid": 1, "tid": 0,
                     "ts": us(trial.abandoned_at),
                     "name": f"abandon trial {trial_id}", "cat": "fault",
                     "args": {"trial_id": trial_id}}
                )
        events.sort(key=lambda e: e["ts"])
        return {"displayTimeUnit": "ms", "traceEvents": meta + events}

    def chrome_trace_json(self) -> str:
        """Canonical (sorted-keys, compact) serialisation — byte-stable."""
        return json.dumps(
            self.to_chrome_trace(), sort_keys=True, separators=(",", ":")
        )

    # --------------------------------------------------------------- report

    def render_report(self) -> str:
        """Plain-text run report: spans, critical path, stragglers, idle."""
        lines = [
            f"trace: {len(self.trials)} trials, {len(self.workers)} workers, "
            f"{self.events_consumed} events, horizon {self.elapsed:g}",
        ]
        incumbent = self.incumbent()
        if incumbent is not None:
            path = self.critical_path(incumbent)
            lines.append(
                f"incumbent: trial {incumbent} "
                f"(loss {self.trials[incumbent].best_loss():g}), "
                f"end-to-end latency {path.total_latency:g}"
            )
            lines.append("critical path:")
            for kind, total in path.breakdown().items():
                if path.total_latency > 0:
                    share = 100.0 * total / path.total_latency
                    lines.append(f"  {kind:<16} {total:>10.4g}  ({share:5.1f}%)")
                else:
                    lines.append(f"  {kind:<16} {total:>10.4g}")
        util = self.utilization_report()
        lines.append(
            f"utilisation: {util['cluster_utilization']:.1%} "
            f"(busy {util['busy_time']:g}, idle {util['idle_time']:g})"
        )
        stragglers = self.straggler_report()
        if stragglers:
            lines.append("slowest workers (slowdown vs median rate):")
            for stats in stragglers[:5]:
                lines.append(
                    f"  worker {stats.worker_id:>3}  x{stats.slowdown:.2f}  "
                    f"({stats.attempts} jobs, busy {stats.busy_time:g})"
                )
        return "\n".join(lines)


class TraceBuilder:
    """Fold a telemetry event stream into a :class:`Trace`.

    Usable three ways, all producing identical traces for the same stream:

    * as a live sink: ``hub.add_sink(builder)`` (or ``trace=True`` on a
      backend ``run``, which does this for you);
    * replaying recorded events: ``TraceBuilder.from_events(sink.events)``;
    * offline from a JSONL export: ``TraceBuilder.from_jsonl(path)``.

    Call :meth:`build` once the stream is complete.  ``finalize`` (invoked
    by :meth:`TelemetryHub.finalize` like any collector) pins the run
    horizon so in-flight attempts and trailing idle time are bounded.  Each
    :class:`~repro.telemetry.MetricsCollector` owns one and reports off it.
    """

    def __init__(self) -> None:
        self._trials: dict[int, TrialTrace] = {}
        #: Every dispatch, in dispatch order.
        self.attempts: list[AttemptSpan] = []
        #: Open attempt per job id (retried jobs reuse their id serially).
        self._open: dict[int, AttemptSpan] = {}
        self._last_time = 0.0
        self._events = 0
        self._elapsed: float | None = None
        self._num_workers: int | None = None
        #: The last :meth:`build`, reused until the stream or horizon moves.
        self._built: tuple[tuple[Any, ...], Trace] | None = None

    # ------------------------------------------------------------ ingestion

    @classmethod
    def from_events(cls, events: Iterable[TelemetryEvent]) -> "TraceBuilder":
        builder = cls()
        for event in events:
            builder.write(event)
        return builder

    @classmethod
    def from_jsonl(cls, path: str | os.PathLike[str] | IO[str]) -> "TraceBuilder":
        return cls.from_events(events_from_jsonl(path))

    # ----------------------------------------------------------------- sink

    def write(self, event: TelemetryEvent) -> None:
        self._events += 1
        self._last_time = max(self._last_time, event.time)
        handler = self._HANDLERS.get(event.kind)
        if handler is not None:
            handler(self, event)

    def flush(self) -> None:
        pass

    def close(self) -> None:
        pass

    def finalize(self, *, elapsed: float, num_workers: int) -> None:
        """Pin the run horizon (called by the hub at end of run)."""
        self._elapsed = elapsed
        self._num_workers = num_workers

    # ------------------------------------------------------------- handlers

    def _trial(self, trial_id: int) -> TrialTrace:
        trace = self._trials.get(trial_id)
        if trace is None:
            trace = self._trials[trial_id] = TrialTrace(trial_id=trial_id)
        return trace

    def _on_trial_started(self, event: TelemetryEvent) -> None:
        assert event.trial_id is not None
        trial = self._trial(event.trial_id)
        trial.sampled_at = event.time
        config = event.data.get("config")
        if config is not None:
            # Live events carry the scheduler's canonical config (usually
            # the trial's own dict); share it, the builder only reads it.
            # JSONL-sourced events decode a fresh dict per line anyway.
            trial.config = config

    def _on_job_started(self, event: TelemetryEvent) -> None:
        if event.trial_id is None or event.job_id is None:
            return
        stale = self._open.pop(event.job_id, None)
        if stale is not None:  # defensive: close a dangling prior dispatch
            stale.end = event.time
            stale.outcome = "lost"
        span = AttemptSpan(
            trial_id=event.trial_id,
            job_id=event.job_id,
            attempt=int(event.data.get("attempt", 1)),
            start=event.time,
            worker_id=event.worker_id,
            rung=event.rung,
            bracket=event.bracket,
            resource=event.data.get("resource"),
            checkpoint_resource=event.data.get("checkpoint_resource"),
        )
        self._open[event.job_id] = span
        self.attempts.append(span)
        self._trial(event.trial_id).attempts.append(span)

    def _close(self, event: TelemetryEvent, outcome: str) -> AttemptSpan | None:
        if event.job_id is None:
            return None
        span = self._open.pop(event.job_id, None)
        if span is None:
            return None
        span.end = event.time
        span.outcome = outcome
        return span

    def _on_report(self, event: TelemetryEvent) -> None:
        span = self._close(event, "completed")
        if span is not None:
            span.loss = event.data.get("loss", span.loss)
            if event.data.get("resource") is not None:
                span.resource = event.data["resource"]

    def _on_job_failed(self, event: TelemetryEvent) -> None:
        span = self._close(event, str(event.data.get("reason", "failed")))
        if span is not None:
            span.error = event.data.get("error")

    def _on_job_retried(self, event: TelemetryEvent) -> None:
        if event.trial_id is None:
            return
        ready_at = event.data.get("retry_at")
        if ready_at is None:
            ready_at = event.time + float(event.data.get("delay", 0.0))
        self._trial(event.trial_id).backoffs.append((event.time, float(ready_at)))

    def _on_trial_abandoned(self, event: TelemetryEvent) -> None:
        if event.trial_id is not None:
            self._trial(event.trial_id).abandoned_at = event.time

    def _on_promotion(self, event: TelemetryEvent) -> None:
        if event.trial_id is None:
            return
        self._trial(event.trial_id).promotions.append(
            (event.time, event.data.get("from_rung"), event.rung)
        )

    def _on_checkpoint_restored(self, event: TelemetryEvent) -> None:
        if event.trial_id is not None:
            self._trial(event.trial_id).checkpoint_restores += 1

    _HANDLERS = {
        EventKind.TRIAL_STARTED: _on_trial_started,
        EventKind.JOB_STARTED: _on_job_started,
        EventKind.REPORT: _on_report,
        EventKind.JOB_FAILED: _on_job_failed,
        EventKind.JOB_TIMEOUT: _on_job_failed,
        EventKind.JOB_RETRIED: _on_job_retried,
        EventKind.TRIAL_ABANDONED: _on_trial_abandoned,
        EventKind.PROMOTION: _on_promotion,
        EventKind.CHECKPOINT_RESTORED: _on_checkpoint_restored,
    }

    # ---------------------------------------------------------------- build

    def build(self) -> Trace:
        """The :class:`Trace` of everything ingested (the same one until more is).

        Attempts in flight end at the horizon here but stay open for later events.
        """
        key = (self._events, self._elapsed, self._num_workers)
        if self._built is not None and self._built[0] == key:
            return self._built[1]
        elapsed = self._elapsed if self._elapsed is not None else self._last_time
        for span in self._open.values():
            span.end = elapsed
            span.outcome = "running"
        # Worker timelines from worker-attributed attempts.
        by_worker: dict[int, list[AttemptSpan]] = {}
        for a in self.attempts:
            if a.worker_id is not None:
                by_worker.setdefault(a.worker_id, []).append(a)
        initial = self._num_workers if self._num_workers is not None else 0
        workers: dict[int, WorkerTimeline] = {}
        worker_ids = set(by_worker) | set(range(initial))
        for worker_id in sorted(worker_ids):
            attempts = sorted(by_worker.get(worker_id, []), key=lambda a: a.start)
            # Initial workers exist from t=0; churn replacements from their
            # first dispatch (their birth is not in the event stream).
            cursor = 0.0 if worker_id < initial or not attempts else attempts[0].start
            segments: list[WorkerSegment] = []
            for a in attempts:
                if a.start > cursor:
                    segments.append(WorkerSegment(cursor, a.start, "idle"))
                assert a.end is not None
                segments.append(
                    WorkerSegment(a.start, a.end, "busy", a.trial_id, a.job_id)
                )
                cursor = max(cursor, a.end)
            if cursor < elapsed:
                segments.append(WorkerSegment(cursor, elapsed, "idle"))
            workers[worker_id] = WorkerTimeline(worker_id=worker_id, segments=segments)
        trace = Trace(
            dict(sorted(self._trials.items())),
            workers,
            elapsed=elapsed,
            num_workers=self._num_workers if self._num_workers is not None else len(workers),
            events_consumed=self._events,
        )
        self._built = (key, trace)
        return trace


def events_from_jsonl(path: str | os.PathLike[str] | IO[str]) -> list[TelemetryEvent]:
    """Parse a :class:`~repro.telemetry.JSONLSink` export back into events."""
    if hasattr(path, "read"):
        lines = path.read().splitlines()
    else:
        with open(path, encoding="utf-8") as handle:
            lines = handle.read().splitlines()
    events: list[TelemetryEvent] = []
    for line in lines:
        line = line.strip()
        if not line:
            continue
        raw = json.loads(line)
        events.append(
            TelemetryEvent(
                seq=int(raw["seq"]),
                kind=EventKind(raw["kind"]),
                time=float(raw["time"]),
                wall_time=float(raw.get("wall_time", 0.0)),
                trial_id=raw.get("trial_id"),
                job_id=raw.get("job_id"),
                worker_id=raw.get("worker_id"),
                rung=raw.get("rung"),
                bracket=raw.get("bracket"),
                data=raw.get("data", {}),
            )
        )
    events.sort(key=lambda e: e.seq)
    return events


#: Phase values the validator accepts (the subset the exporter may emit
#: plus begin/end pairs, so hand-written traces validate too).
_VALID_PHASES = {"X", "B", "E", "i", "I", "M", "C"}


def validate_chrome_trace(trace: dict[str, Any]) -> list[str]:
    """Schema-check a Chrome trace-event object; returns violations.

    Checks the invariants the exporter guarantees (and Perfetto relies on):
    a ``traceEvents`` list, known phases, numeric non-negative ``ts``/
    ``dur``, ``ts`` sorted non-decreasing across timed events, and strictly
    matched ``B``/``E`` pairs per ``(pid, tid)`` stack.
    """
    violations: list[str] = []
    events = trace.get("traceEvents")
    if not isinstance(events, list):
        return ["traceEvents is missing or not a list"]
    last_ts: float | None = None
    stacks: dict[tuple[Any, Any], list[str]] = {}
    for i, event in enumerate(events):
        if not isinstance(event, dict):
            violations.append(f"event {i}: not an object")
            continue
        ph = event.get("ph")
        if ph not in _VALID_PHASES:
            violations.append(f"event {i}: unknown phase {ph!r}")
            continue
        if "name" not in event:
            violations.append(f"event {i}: missing name")
        if "pid" not in event or "tid" not in event:
            violations.append(f"event {i}: missing pid/tid")
        if ph == "M":
            continue
        ts = event.get("ts")
        if not isinstance(ts, (int, float)) or ts < 0:
            violations.append(f"event {i}: bad ts {ts!r}")
            continue
        if last_ts is not None and ts < last_ts:
            violations.append(f"event {i}: ts {ts} out of order (prev {last_ts})")
        last_ts = ts
        if ph == "X":
            dur = event.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                violations.append(f"event {i}: X event with bad dur {dur!r}")
        elif ph == "B":
            stacks.setdefault((event.get("pid"), event.get("tid")), []).append(
                str(event.get("name"))
            )
        elif ph == "E":
            stack = stacks.setdefault((event.get("pid"), event.get("tid")), [])
            if not stack:
                violations.append(f"event {i}: E without matching B")
            else:
                stack.pop()
    for (pid, tid), stack in stacks.items():
        if stack:
            violations.append(
                f"unclosed B events on pid={pid} tid={tid}: {stack!r}"
            )
    return violations
