"""Metrics registry + the collector that derives metrics from events.

The registry half is deliberately boring — named counters, gauges and
histograms, in the Prometheus mould (optional labels, per-family help,
scrape-time collectors) but in-process and allocation-light.  One class
serves both scopes: the per-run instance a :class:`MetricsCollector` owns
and the process-wide one behind
:func:`repro.telemetry.runtime.install_runtime_registry`.
The interesting half is :class:`MetricsCollector`, a telemetry sink that
folds the event stream into the scheduler-level quantities the paper's
systems claims are stated in:

* **rung occupancy** — how many trials have filed a result in each rung,
  over time (the shape of the ASHA ladder, Section 3.2);
* **promotion latency** — how long a trial sits between finishing rung
  ``k-1`` and a worker picking up its rung-``k`` job (the asynchrony win:
  near-zero for ASHA, rung-barrier-sized for synchronous SHA);
* **queue wait** — how long each worker idles between finishing one job
  and starting the next (the utilisation loss stragglers cause);
* **failure rate** — failed jobs over dispatched jobs;
* **per-worker utilisation** — busy time per worker; its mean over workers
  reproduces the scalar ``BackendResult.utilization``.

Queue wait, utilisation and time lost to failures are worker time: the
collector reads them off the spans of the trace it builds from the same
stream, rather than keeping a second account of its own.
"""

from __future__ import annotations

import math
import re
from itertools import accumulate
from dataclasses import dataclass, field
from typing import Any, Callable

from .events import EventKind, TelemetryEvent
from .exposition import LABEL_NAME_RE, series_key
from .tracing import AttemptSpan, TraceBuilder

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "MetricsCollector",
    "MetricsReport",
]

#: Registry names: Prometheus metric names plus ``.``, the per-run
#: collector's namespace separator (``events.report``).  A dotted name is
#: not a legal exposition family; ``validate_exposition`` reports it if a
#: registry holding one is ever rendered.
_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:.]*$")


class Counter:
    """Monotonically increasing count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease (inc {amount})")
        self.value += amount


class Gauge:
    """Last-write-wins value."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value


class Histogram:
    """Streaming summary of observed values (count/sum/min/max + samples).

    Telemetry volumes here are small enough (thousands of events) that we
    keep the raw samples, which makes exact percentiles and hand-computed
    test assertions possible; swap for fixed buckets if that ever changes.
    """

    __slots__ = ("name", "samples")

    def __init__(self, name: str):
        self.name = name
        self.samples: list[float] = []

    def observe(self, value: float) -> None:
        self.samples.append(value)

    @property
    def count(self) -> int:
        return len(self.samples)

    @property
    def total(self) -> float:
        return sum(self.samples)

    def mean(self) -> float:
        return self.total / len(self.samples) if self.samples else math.nan

    def percentile(self, q: float) -> float:
        """Exact q-th percentile (nearest-rank), ``q`` in [0, 100]."""
        if not self.samples:
            return math.nan
        if not 0 <= q <= 100:
            raise ValueError(f"percentile q must be in [0, 100], got {q}")
        ordered = sorted(self.samples)
        rank = min(int(math.ceil(q / 100.0 * len(ordered))), len(ordered)) - 1
        return ordered[max(rank, 0)]

    def summary(self) -> dict[str, float]:
        if not self.samples:
            return {"count": 0}
        return {
            "count": self.count,
            "sum": self.total,
            "mean": self.mean(),
            "min": min(self.samples),
            "max": max(self.samples),
            "p50": self.percentile(50),
            "p90": self.percentile(90),
            "p99": self.percentile(99),
        }


class MetricsRegistry:
    """Get-or-create store of named, optionally labelled metrics.

    ``counter``/``gauge``/``histogram`` take optional ``help`` and
    ``labels``; both are read when a series is first created.  Each base
    name is an exposition *family* with a type, help text and the union of
    observed label names.  Collectors registered via :meth:`add_collector`
    run at snapshot time (so occupancy-style gauges cost nothing per
    operation); a collector that returns ``False`` is pruned — the idiom
    for weakref'd subjects that have been garbage-collected.
    """

    def __init__(self) -> None:
        #: series key -> instrument, one dict per kind.
        self.counters: dict[str, Counter] = {}
        self.gauges: dict[str, Gauge] = {}
        self.histograms: dict[str, Histogram] = {}
        #: base name -> {"type", "help", "labels": sorted label names}
        self._families: dict[str, dict[str, Any]] = {}
        self._collectors: list[Callable[[], Any]] = []
        #: Probe bundles resolved by :func:`repro.telemetry.runtime.probes`:
        #: resolving does label mangling and family registration, which a
        #: 10k-study multiplexer must not repeat per study.
        self._probe_cache: dict[tuple[Any, ...], Any] = {}

    def _register_family(
        self, kind: str, name: str, help: str | None, labels: dict[str, Any] | None
    ) -> None:
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        label_names = sorted(labels) if labels else []
        for label in label_names:
            if not LABEL_NAME_RE.match(label):
                raise ValueError(f"invalid label name {label!r} on metric {name!r}")
        family = self._families.get(name)
        if family is None:
            self._families[name] = {"type": kind, "help": help or "", "labels": label_names}
            return
        if family["type"] != kind:
            raise ValueError(
                f"metric {name!r} already registered as {family['type']}, not {kind}"
            )
        if help and not family["help"]:
            family["help"] = help
        family["labels"] = sorted(set(family["labels"]).union(label_names))

    def _series(
        self,
        store: dict[str, Any],
        factory: Callable[[str], Any],
        kind: str,
        name: str,
        help: str | None,
        labels: dict[str, Any] | None,
    ) -> Any:
        key = series_key(name, labels)
        found = store.get(key)
        if found is None:
            self._register_family(kind, name, help, labels)
            found = store[key] = factory(key)
        return found

    def counter(
        self, name: str, *, help: str | None = None, labels: dict[str, Any] | None = None
    ) -> Counter:
        return self._series(self.counters, Counter, "counter", name, help, labels)

    def gauge(
        self, name: str, *, help: str | None = None, labels: dict[str, Any] | None = None
    ) -> Gauge:
        return self._series(self.gauges, Gauge, "gauge", name, help, labels)

    def histogram(
        self, name: str, *, help: str | None = None, labels: dict[str, Any] | None = None
    ) -> Histogram:
        return self._series(self.histograms, Histogram, "histogram", name, help, labels)

    def add_collector(self, collector: Callable[[], Any]) -> None:
        """Register a scrape-time callback; return ``False`` to be pruned."""
        self._collectors.append(collector)

    def snapshot(self) -> dict[str, Any]:
        """Plain-dict view of every metric (for serialisation / display).

        Runs the collectors first, pruning the ones that report themselves
        dead.
        """
        if self._collectors:
            self._collectors = [c for c in self._collectors if c() is not False]
        return {
            "counters": {name: c.value for name, c in sorted(self.counters.items())},
            "gauges": {name: g.value for name, g in sorted(self.gauges.items())},
            "histograms": {name: h.summary() for name, h in sorted(self.histograms.items())},
            "families": {
                name: {"type": fam["type"], "help": fam["help"], "labels": list(fam["labels"])}
                for name, fam in sorted(self._families.items())
            },
        }


def _counter_view(name: str, doc: str) -> property:
    """Read-only :class:`MetricsReport` attribute backed by ``counters[name]``."""
    return property(lambda report: report.counters.get(name, 0.0), doc=doc)


@dataclass
class MetricsReport:
    """Frozen end-of-run snapshot attached to ``BackendResult.telemetry``."""

    counters: dict[str, float] = field(default_factory=dict)
    gauges: dict[str, float] = field(default_factory=dict)
    histograms: dict[str, dict[str, float]] = field(default_factory=dict)
    #: rung index -> number of trials that filed a result there.
    rung_occupancy: dict[int, int] = field(default_factory=dict)
    #: (time, rung, occupancy-after) triples, in event order.
    rung_occupancy_series: list[tuple[float, int, int]] = field(default_factory=list)
    #: worker id -> busy_time / elapsed.
    worker_utilization: dict[int, float] = field(default_factory=dict)
    #: (time, cluster busy fraction so far) pairs, in event order.
    utilization_series: list[tuple[float, float]] = field(default_factory=list)
    failure_rate: float = 0.0
    elapsed: float = 0.0
    num_workers: int = 0

    jobs_retried = _counter_view(
        "jobs_retried", "Re-dispatches granted by a :class:`~repro.backend.faults.RetryPolicy`."
    )
    jobs_timed_out = _counter_view("jobs_timed_out", "Jobs killed for exceeding their deadline.")
    trials_abandoned = _counter_view(
        "trials_abandoned", "Trials quarantined after exhausting their retry budget."
    )
    time_lost_to_failures = _counter_view(
        "time_lost_to_failures",
        "Backend time spent on jobs that ultimately failed (dropped, crashed, churned or "
        "timed out) — the worker-time the failures wasted.",
    )

    def mean_utilization(self) -> float:
        """Mean per-worker utilisation == the scalar ``BackendResult.utilization``."""
        if self.num_workers == 0:
            return 0.0
        return sum(self.worker_utilization.values()) / self.num_workers

    def to_markdown(self) -> str:
        """One-call run summary as a markdown table.

        Covers the quantities every post-run question starts with —
        utilisation, idle time, throughput and the fault counters — so a
        report can be dropped straight into a PR description or issue.
        """
        busy = sum(self.worker_utilization.values()) * self.elapsed
        idle = max(self.num_workers * self.elapsed - busy, 0.0)
        rows: list[tuple[str, str]] = [
            ("elapsed", f"{self.elapsed:g}"),
            ("workers", f"{self.num_workers}"),
            ("mean utilisation", f"{self.mean_utilization():.1%}"),
            ("busy worker-time", f"{busy:g}"),
            ("idle worker-time", f"{idle:g}"),
            ("trials started", f"{int(self.counters.get('trials_started', 0))}"),
            ("jobs started", f"{int(self.counters.get('jobs_started', 0))}"),
            ("reports", f"{int(self.counters.get('events.report', 0))}"),
            ("promotions", f"{int(self.counters.get('promotions', 0))}"),
            ("jobs failed", f"{int(self.counters.get('jobs_failed', 0))}"),
            ("jobs timed out", f"{int(self.jobs_timed_out)}"),
            ("jobs retried", f"{int(self.jobs_retried)}"),
            ("trials abandoned", f"{int(self.trials_abandoned)}"),
            ("failure rate", f"{self.failure_rate:.1%}"),
            ("time lost to failures", f"{self.time_lost_to_failures:g}"),
        ]
        width = max(len(label) for label, _ in rows)
        value_width = max(max(len(value) for _, value in rows), len("value"))
        lines = [
            f"| {'metric'.ljust(width)} | {'value'.ljust(value_width)} |",
            f"| {'-' * width} | {'-' * value_width} |",
        ]
        lines.extend(
            f"| {label.ljust(width)} | {value.ljust(value_width)} |"
            for label, value in rows
        )
        return "\n".join(lines)

    def model_hit_rate(self) -> float:
        """Fraction of origin-tagged proposals that came out of a model.

        Derived from the ``proposals.*`` counters a searcher-aware scheduler
        stamps onto ``trial_started`` events (``model_based`` vs
        ``random_fallback``/``grid``).  ``nan`` when no proposal carried an
        origin — e.g. under default random sampling or the ``bohb``/``gp`` rows.
        """
        tagged = sum(
            value for name, value in self.counters.items() if name.startswith("proposals.")
        )
        if tagged == 0:
            return math.nan
        return self.counters.get("proposals.model_based", 0.0) / tagged


class MetricsCollector:
    """Telemetry sink folding events into the registry + derived series.

    The collector folds what only it reports — the counters, rung
    occupancy, promotion latency and proposal origins — and forwards every
    event to the :class:`~repro.telemetry.tracing.TraceBuilder` it owns
    (:attr:`builder`).  Worker time — busy time, time lost to failures,
    queue wait and the utilisation series — is read off that builder's
    spans when a report is taken, so the report and a run's ``trace`` are
    one account.  Everything is keyed off event payloads only, so the
    collector can be replayed over a recorded stream (e.g. the in-memory
    sink's events) and produce the identical report.
    """

    def __init__(self) -> None:
        self.registry = MetricsRegistry()
        self.builder = TraceBuilder()
        self._events_total = self.registry.counter("events_total")
        # Per-kind counters (``events.<kind>`` plus its ``_COUNTED_AS`` name),
        # created on the kind's first event so the report lists only kinds
        # that occurred.
        self._kind_counters: dict[EventKind, list[Counter]] = {}
        # Trials seen per rung (occupancy counts distinct trials, so a
        # re-reported trial does not inflate its rung).
        self._rung_members: dict[int, set[int]] = {}
        self._rung_series: list[tuple[float, int, int]] = []
        # Promotion latency: last report time per trial.
        self._last_report: dict[int, float] = {}

    # ---------------------------------------------------------------- sink

    def write(self, event: TelemetryEvent) -> None:
        self._events_total.inc()
        kind = event.kind
        counters = self._kind_counters.get(kind)
        if counters is None:
            names = (f"events.{kind.value}", self._COUNTED_AS.get(kind))
            counters = self._kind_counters[kind] = [
                self.registry.counter(name) for name in names if name
            ]
        for counter in counters:
            counter.inc()
        handler = self._HANDLERS.get(kind)
        if handler is not None:
            handler(self, event)
        self.builder.write(event)

    def flush(self) -> None:
        pass

    def close(self) -> None:
        pass

    # ------------------------------------------------------------ handlers

    def _on_report(self, event: TelemetryEvent) -> None:
        if event.trial_id is not None:
            self._last_report[event.trial_id] = event.time
        if event.rung is not None and event.trial_id is not None:
            members = self._rung_members.setdefault(event.rung, set())
            if event.trial_id not in members:
                members.add(event.trial_id)
                occupancy = len(members)
                self.registry.gauge(f"rung_occupancy.{event.rung}").set(occupancy)
                self._rung_series.append((event.time, event.rung, occupancy))

    def _on_promotion(self, event: TelemetryEvent) -> None:
        if event.trial_id is not None:
            last = self._last_report.get(event.trial_id)
            if last is not None:
                latency = max(event.time - last, 0.0)
                self.registry.histogram("promotion_latency").observe(latency)

    def _on_trial_started(self, event: TelemetryEvent) -> None:
        origin = event.data.get("origin")
        if origin is not None:
            self.registry.counter(f"proposals.{origin}").inc()

    #: Event kinds whose count the report also carries under a domain name.
    _COUNTED_AS = {
        EventKind.JOB_STARTED: "jobs_started",
        EventKind.JOB_FAILED: "jobs_failed",
        EventKind.JOB_TIMEOUT: "jobs_timed_out",
        EventKind.JOB_RETRIED: "jobs_retried",
        EventKind.TRIAL_ABANDONED: "trials_abandoned",
        EventKind.PROMOTION: "promotions",
        EventKind.RUNG_COMPLETED: "rung_completions",
        EventKind.TRIAL_STARTED: "trials_started",
        EventKind.CHECKPOINT_RESTORED: "checkpoint_restores",
        EventKind.WORKER_IDLE: "worker_idle_polls",
    }

    #: What each kind feeds beyond its counts.
    _HANDLERS = {
        EventKind.REPORT: _on_report,
        EventKind.PROMOTION: _on_promotion,
        EventKind.TRIAL_STARTED: _on_trial_started,
    }

    # ------------------------------------------------------------- results

    def finalize(self, *, elapsed: float, num_workers: int) -> None:
        """Record run extent so utilisation fractions are well-defined.

        An attempt still running when the run stopped worked until then.
        """
        self.builder.finalize(elapsed=elapsed, num_workers=num_workers)

    def rung_occupancy(self) -> dict[int, int]:
        return {rung: len(members) for rung, members in sorted(self._rung_members.items())}

    def worker_utilization(self, elapsed: float | None = None) -> dict[int, float]:
        """Busy fraction per worker that ran an attempt, over ``elapsed`` or the horizon."""
        trace = self.builder.build()
        horizon = trace.elapsed if elapsed is None else elapsed
        worked = {span.worker_id for span in self.builder.attempts}
        return {
            w: min(timeline.busy_time / horizon, 1.0) if horizon > 0 else 0.0
            for w, timeline in trace.workers.items()
            if w in worked
        }

    def report(self) -> MetricsReport:
        """Snapshot everything into a :class:`MetricsReport`.

        Before ``finalize``, the stream so far: its horizon is the last event's time.
        """
        trace = self.builder.build()
        elapsed, num_workers = trace.elapsed, trace.num_workers
        snap = self.registry.snapshot()
        counters, histograms = snap["counters"], snap["histograms"]
        # Worker time, off the spans: a failed span's duration is time lost,
        # each dispatch waited from the end of the previous span on its
        # worker, and the cluster's busy time accrues as spans end.
        attempts = self.builder.attempts
        lost = [s.duration for s in attempts if s.outcome not in ("completed", "running")]
        if lost:
            counters["time_lost_to_failures"] = math.fsum(lost)
        worked = [span for span in attempts if span.worker_id is not None]
        queue_wait = Histogram("queue_wait")
        previous: dict[int, AttemptSpan] = {}
        for span in worked:
            before = previous.get(span.worker_id)
            if before is not None:
                queue_wait.observe(max(span.start - before.end, 0.0))
            previous[span.worker_id] = span
        if queue_wait.count:
            histograms["queue_wait"] = queue_wait.summary()
        denominator = max(num_workers, 1) * max(elapsed, 1e-12)
        ended = sorted(worked, key=lambda span: span.end)
        busy = accumulate(span.duration for span in ended)
        started = counters.get("jobs_started", 0.0)
        failed = counters.get("jobs_failed", 0.0) + counters.get("jobs_timed_out", 0.0)
        return MetricsReport(
            counters=counters,
            gauges=snap["gauges"],
            histograms=histograms,
            rung_occupancy=self.rung_occupancy(),
            rung_occupancy_series=list(self._rung_series),
            worker_utilization=self.worker_utilization(elapsed),
            utilization_series=[
                (span.end, min(total / denominator, 1.0))
                for span, total in zip(ended, busy)
            ],
            failure_rate=failed / started if started else 0.0,
            elapsed=elapsed,
            num_workers=num_workers,
        )
