"""Trial-lifecycle telemetry: observe a search while it runs.

The paper's headline claims are *systems* claims — linear speedups,
robustness to stragglers and dropped jobs, high worker utilisation
(Sections 4-5).  This package makes the quantities behind those claims
first-class observable state instead of after-the-fact aggregates:

* :class:`TelemetryHub` — typed lifecycle events (:class:`EventKind`) with
  backend-clock and wall-clock timestamps, fanned out to sinks;
* :class:`MetricsCollector` — counters/gauges/histograms deriving rung
  occupancy, promotion latency, queue wait, failure rate and per-worker
  utilisation from the stream;
* sinks — :class:`InMemorySink` for tests, :class:`JSONLSink` for
  byte-stable offline export, :class:`LiveSummarySink` for an ASCII
  dashboard built on :mod:`repro.analysis.ascii_chart`.

The hub is optional everywhere: schedulers and backends default to the
falsy :data:`NULL_HUB`, so hot paths pay a single branch when telemetry is
off and deterministic behaviour is untouched.  Enable it per run::

    from repro.telemetry import TelemetryHub, JSONLSink

    hub = TelemetryHub.with_metrics(JSONLSink("events.jsonl"))
    result = cluster.run(scheduler, objective, time_limit=1000, telemetry=hub)
    print(result.telemetry.rung_occupancy)

See ``docs/telemetry.md`` for the event schema and metric definitions.
"""

from .events import EventKind, TelemetryEvent
from .exposition import render_prometheus, validate_exposition
from .hub import NULL_HUB, NullHub, TelemetryHub
from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsCollector,
    MetricsRegistry,
    MetricsReport,
)
from .runtime import (
    RuntimeScraper,
    install_runtime_registry,
    runtime_registry,
    uninstall_runtime_registry,
)
from .sinks import InMemorySink, JSONLSink, LiveSummarySink, TelemetrySink, render_summary
from .tracing import (
    AttemptSpan,
    CriticalPath,
    Trace,
    TraceBuilder,
    TrialTrace,
    WorkerTimeline,
    validate_chrome_trace,
)

__all__ = [
    "AttemptSpan",
    "Counter",
    "CriticalPath",
    "EventKind",
    "Gauge",
    "Histogram",
    "InMemorySink",
    "JSONLSink",
    "LiveSummarySink",
    "MetricsCollector",
    "MetricsRegistry",
    "MetricsReport",
    "NULL_HUB",
    "NullHub",
    "RuntimeScraper",
    "install_runtime_registry",
    "render_prometheus",
    "runtime_registry",
    "uninstall_runtime_registry",
    "validate_exposition",
    "TelemetryEvent",
    "TelemetryHub",
    "TelemetrySink",
    "Trace",
    "TraceBuilder",
    "TrialTrace",
    "WorkerTimeline",
    "render_summary",
    "validate_chrome_trace",
]
