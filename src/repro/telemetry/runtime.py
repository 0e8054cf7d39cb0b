"""Runtime probe layer: observe the service internals, not just the search.

The telemetry package (PR 1) watches the *scheduling domain* — trials,
rungs, promotions.  Everything underneath it — the
:class:`~repro.backend.events.EventQueue`, the WAL group commit in
:class:`~repro.study.journal.JournalWriter`, the
:class:`~repro.study.multiplex.StudyMultiplexer` fair-share dispatcher,
the thread/process backends — was a black box.  This module makes those
internals observable without making them slower when nobody is looking:

* A process-global install point — :func:`install_runtime_registry` /
  :func:`uninstall_runtime_registry` / :func:`runtime_registry` — for one
  :class:`~repro.telemetry.MetricsRegistry` (the same class a per-run
  :class:`~repro.telemetry.MetricsCollector` owns).
* The probe :data:`CATALOGUE` and :func:`probes`: instrumented classes
  resolve their bundle of instruments once, at construction; with no
  registry installed the bundle is ``None`` and every call site pays a
  single attribute load + branch.
* Two scrape-time collectors (:func:`collect_queue`, :func:`collect_mux`,
  attached with :func:`watch`) computing occupancy and starvation gauges on
  demand instead of on every operation.
* :class:`RuntimeScraper` — a shared-clock snapshot scraper: hook its
  :meth:`~RuntimeScraper.on_tick` into ``drive_runs`` (the
  ``StudyMultiplexer(scraper=...)`` argument does this for you) and it
  appends a canonical-JSON registry snapshot to a JSONL file every N
  simulated ticks.
* The ops CLI, :func:`main` (``python -m repro.telemetry FILE``), over both
  exported artefact kinds, told apart by the file's first record: scraper
  snapshots (``--watch/--prom/--report``: a live multiplexer health table,
  the last snapshot as Prometheus text, the full metric report) or a
  :class:`~repro.telemetry.JSONLSink` event stream (``--report/--chrome``:
  the run report, a Chrome trace for https://ui.perfetto.dev).

Install order matters: probes are resolved when the instrumented object is
*constructed*, so install the registry before building studies, queues,
multiplexers or backends (quick start: ``docs/observability.md``).

Wall-clock readings (fsync latency, tell latency) live only in the
registry — never in records, journals or traces — so enabled probes keep
every byte-identity guarantee of the unprobed system.

See ``docs/observability.md`` for the probe catalogue and the overhead
budget (CI-gated by the ``observability_overhead`` benchmark).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time as _time
import weakref
from typing import Any, Callable

from ..canonical import encode_canonical
from .exposition import (
    format_value,
    parse_label_string,
    render_prometheus,
    split_series_key,
    validate_exposition,
)
from .metrics import MetricsRegistry
from .tracing import TraceBuilder, validate_chrome_trace

__all__ = [
    "CATALOGUE",
    "RuntimeScraper",
    "install_runtime_registry",
    "uninstall_runtime_registry",
    "runtime_registry",
    "probes",
    "render_report",
    "main",
]

#: Per-study labelled gauges are emitted for at most this many studies;
#: beyond the cap only the aggregate gauges (``mux_starvation_age_max_ticks``,
#: ``mux_pending_asks_cluster``) are kept, so a 10k-study multiplexer does
#: not explode the exposition's cardinality.
MUX_STUDY_LABEL_CAP = 64


# --------------------------------------------------------------------------
# Process-global install point
# --------------------------------------------------------------------------

_REGISTRY: MetricsRegistry | None = None


def install_runtime_registry(registry: MetricsRegistry | None = None) -> MetricsRegistry:
    """Install ``registry`` (or a fresh one) as the process-global registry.

    Instrumented classes resolve their probes at construction, so install
    *before* building queues, studies, multiplexers or backends.  Returns
    the installed registry.
    """
    global _REGISTRY
    _REGISTRY = registry if registry is not None else MetricsRegistry()
    return _REGISTRY


def uninstall_runtime_registry() -> None:
    """Remove the process-global registry; new call sites go back to no-ops."""
    global _REGISTRY
    _REGISTRY = None


def runtime_registry() -> MetricsRegistry | None:
    """The installed registry, or ``None`` when probing is off."""
    return _REGISTRY


# --------------------------------------------------------------------------
# Probe catalogue
# --------------------------------------------------------------------------

# Rows shared by two bundles, so each family's help is written once.
_FSYNC_ROWS = (
    ("fsyncs", "counter", "journal_fsync_total",
     "fsyncs by target: a study's journal file (finalize / non-WAL durability) or the "
     "shared WAL (one per dirty commit window).", True),
    ("fsync_seconds", "histogram", "journal_fsync_seconds",
     "fsync latency in seconds, by target.", True),
)
_RETRY_ROW = (
    "retries", "counter", "backend_retries_total",
    "Backend-level retries (re-dispatches, inline recomputes after pool loss).", True,
)

#: bundle -> rows of (attribute, kind, family, help, labelled): the single
#: place that knows family names and help strings.  A *labelled* row takes
#: the labels :func:`probes` is called with; the others are process-wide.
CATALOGUE: dict[str, tuple[tuple[str, str, str, str, bool], ...]] = {
    "queue": (
        ("pushes", "counter", "event_queue_pushes_total",
         "Events pushed onto the event queue.", False),
        ("pops", "counter", "event_queue_pops_total",
         "Events popped off the event queue.", False),
    ),
    "journal": (
        ("bytes", "counter", "journal_bytes_total",
         "Payload bytes appended to study journals.", False),
        *_FSYNC_ROWS,
    ),
    "wal": (
        ("commits", "counter", "wal_commits_total",
         "Group-commit windows flushed through the shared WAL.", False),
        ("commit_bytes", "histogram", "wal_commit_bytes",
         "Bytes written to the WAL per commit window.", False),
        ("commit_journals", "histogram", "wal_commit_window_journals",
         "Dirty journals drained per commit window.", False),
        *_FSYNC_ROWS,
    ),
    "study": (
        ("asks", "counter", "study_asks_total", "Jobs handed out by Study.ask.", False),
        ("tells", "counter", "study_tells_total", "Results ingested by Study.tell.", False),
        ("tell_seconds", "histogram", "study_tell_seconds",
         "Wall-clock latency of Study.tell in seconds (one tell in eight is timed).", False),
    ),
    "backend": (
        ("dispatches", "counter", "backend_dispatch_total",
         "Jobs handed to backend workers.", True),
        ("collects", "counter", "backend_collect_total",
         "Job results collected from backend workers.", True),
        _RETRY_ROW,
        ("in_flight", "gauge", "backend_in_flight",
         "Jobs currently dispatched and not yet collected.", True),
    ),
    # The simulator dispatches through the event queue, not through workers:
    # it exports its retry count without always-zero dispatch/collect series.
    "retries": (_RETRY_ROW,),
    "mux": (
        ("ticks", "counter", "mux_ticks_total",
         "Shared-clock ticks driven by the multiplexer.", False),
        ("throttles", "counter", "mux_throttle_total",
         "Fill rounds cut short by the fair_share cap.", False),
        ("dispatches", "counter", "mux_dispatched_jobs_total",
         "Jobs dispatched across all multiplexed studies.", False),
    ),
}


class _Bundle:
    """Resolved instruments of one bundle; slots keep hot-path loads off an instance dict."""

    __slots__ = tuple({row[0] for rows in CATALOGUE.values() for row in rows})


def probes(bundle: str, **labels: str) -> Any:
    """The ``bundle``'s pre-resolved instruments, or ``None`` when probing is off.

    The hot-path contract everywhere is::

        probes = self._probes          # resolved once, at construction
        if probes is not None:
            probes.pushes.inc()

    Label resolution, name mangling and family registration happen here,
    once per registry and label set: the struct is cached on the registry
    and shared by every caller (10k journals hold one object).
    """
    rows = CATALOGUE[bundle]
    registry = _REGISTRY
    if registry is None:
        return None
    key = (bundle, *sorted(labels.items()))
    cached = registry._probe_cache.get(key)
    if cached is None:
        cached = registry._probe_cache[key] = _Bundle()
        for attribute, kind, family, help, labelled in rows:
            instrument = getattr(registry, kind)(
                family, help=help, labels=labels if labelled else None
            )
            setattr(cached, attribute, instrument)
    return cached


# --------------------------------------------------------------------------
# Scrape-time collectors
# --------------------------------------------------------------------------


def watch(subject: Any, collect: Callable[[MetricsRegistry, Any], None]) -> None:
    """Run ``collect(registry, subject)`` at every scrape while ``subject`` lives.

    The subject is held by weak reference; once it is garbage-collected the
    collector prunes itself.  A no-op when probing is off.
    """
    registry = _REGISTRY
    if registry is None:
        return
    ref = weakref.ref(subject)

    def collector() -> bool:
        live = ref()
        if live is None:
            return False
        collect(registry, live)
        return True

    registry.add_collector(collector)


def _publish(
    registry: MetricsRegistry, family: str, help: str, value: float, **labels: str
) -> None:
    registry.gauge(family, help=help, labels=labels or None).set(float(value))


def collect_queue(registry: MetricsRegistry, queue: Any) -> None:
    """Occupancy of an ``EventQueue``: the events it holds.

    Computed at scrape time, so ``push``/``pop`` pay only a counter
    increment.  With several live queues the gauge reflects the most
    recently constructed one (the multiplexer has exactly one shared queue,
    which is the case that matters).
    """
    _publish(registry, "event_queue_depth",
             "Events currently held by the event queue.", len(queue))


def collect_mux(registry: MetricsRegistry, mux: Any) -> None:
    """Pending asks and starvation age of a ``StudyMultiplexer``'s studies.

    The multiplexer's ``on_tick`` advances its one-element ``_tick_box`` and
    ``SimRun.fill_round`` reads it to stamp ``last_dispatch_tick`` — the
    basis of the starvation ages computed here.
    """
    now = mux._tick_box[0]
    max_age = 0
    total_pending = 0
    active = 0
    for index, run in enumerate(mux._runs):
        # A run that drained naturally is finished without being
        # budget-retired (`run.done`); ask its study, so completed
        # studies never read as starving.
        done = run.done or run.study.is_done()
        pending = 0 if done else len(run.free_ids)
        # A study is starving only while it *wants* to dispatch: free
        # workers and not finished.  Busy or completed studies read 0.
        age = max(now - run.last_dispatch_tick, 0) if pending and not done else 0
        if not done:
            active += 1
        total_pending += pending
        if age > max_age:
            max_age = age
        if index < MUX_STUDY_LABEL_CAP:
            _publish(registry, "mux_pending_asks",
                     "Free worker slots waiting for a job, per study.",
                     pending, study=str(index))
            _publish(registry, "mux_starvation_age_ticks",
                     "Ticks since a study with pending demand last dispatched.",
                     age, study=str(index))
    _publish(registry, "mux_studies_active", "Multiplexed studies not yet finished.", active)
    _publish(registry, "mux_pending_asks_cluster",
             "Free worker slots across all studies.", total_pending)
    _publish(registry, "mux_starvation_age_max_ticks",
             "Worst starvation age across all studies (incl. beyond the label cap).", max_age)


# --------------------------------------------------------------------------
# Shared-clock snapshot scraper
# --------------------------------------------------------------------------


class RuntimeScraper:
    """Append registry snapshots to JSONL on a simulated-clock cadence.

    Hook :meth:`on_tick` into ``drive_runs`` (``StudyMultiplexer`` accepts
    the scraper directly): every ``every`` ticks it appends one canonical
    JSON line ``{"schema": 1, "tick": ..., "wall_time": ..., "snapshot":
    {...}}``.  ``close()`` writes a final snapshot so short runs always
    produce at least one line.  Wall time is recorded for rate computation
    in the CLI — it lives only in the scrape output, never in run records.
    """

    SCHEMA = 1

    def __init__(self, registry: MetricsRegistry, path: str | os.PathLike[str],
                 *, every: int = 64):
        if every < 1:
            raise ValueError(f"scrape cadence must be >= 1 tick, got {every}")
        self.registry = registry
        self.path = os.fspath(path)
        self.every = every
        self.ticks = 0
        self.snapshots_written = 0
        self._handle: Any = open(self.path, "w", encoding="utf-8")

    def on_tick(self) -> None:
        self.ticks += 1
        if self.ticks % self.every == 0:
            self.snapshot()

    def snapshot(self) -> None:
        """Force a snapshot now (collectors run via ``registry.snapshot()``)."""
        if self._handle is None:
            raise ValueError(f"scraper for {self.path} is closed")
        record = {
            "schema": self.SCHEMA,
            "tick": self.ticks,
            "wall_time": _time.time(),
            "snapshot": self.registry.snapshot(),
        }
        self._handle.write(encode_canonical(record) + "\n")
        self._handle.flush()
        self.snapshots_written += 1

    def close(self) -> None:
        if self._handle is None:
            return
        self.snapshot()
        self._handle.close()
        self._handle = None


# --------------------------------------------------------------------------
# Ops CLI
# --------------------------------------------------------------------------


def _load_snapshots(path: str) -> list[dict[str, Any]]:
    with open(path, "r", encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def _table(rows: list[tuple[str, ...]], *, indent: str = "", rule: bool = False) -> list[str]:
    """Left-aligned column table; ``rule`` underlines the header row."""
    widths = [max(len(row[col]) for row in rows) for col in range(len(rows[0]))]
    if rule:
        rows = [rows[0], tuple("-" * width for width in widths), *rows[1:]]
    return [
        indent + "  ".join(cell.ljust(width) for cell, width in zip(row, widths))
        for row in rows
    ]


def _study_table(gauges: dict[str, float]) -> list[str]:
    """The per-study multiplexer health table, from labelled gauges."""
    studies: dict[str, dict[str, float]] = {}
    for key, value in gauges.items():
        base, inner = split_series_key(key)
        if base not in ("mux_pending_asks", "mux_starvation_age_ticks"):
            continue
        study = parse_label_string(inner).get("study")
        if study is not None:
            studies.setdefault(study, {})[base] = value
    if not studies:
        return []
    ordered = sorted(studies.items(), key=lambda item: (len(item[0]), item[0]))
    shown = ordered[:16]
    rows = [("study", "pending_asks", "starvation_age")]
    rows.extend(
        (
            study,
            format_value(values.get("mux_pending_asks", 0.0)),
            format_value(values.get("mux_starvation_age_ticks", 0.0)),
        )
        for study, values in shown
    )
    lines = ["multiplexer health:", *_table(rows, indent="  ")]
    if len(ordered) > len(shown):
        lines.append(f"  ... {len(ordered) - len(shown)} more studies")
    return lines


def render_report(snapshots: list[dict[str, Any]]) -> str:
    """Human-readable health report from a scraped snapshot sequence.

    Counters show their value plus the rate over the observed wall-clock
    window; gauges show their latest value; histograms show count and tail
    percentiles.  When per-study multiplexer gauges are present a compact
    health table (pending asks, starvation age) leads the report.
    """
    if not snapshots:
        return "no snapshots"
    first, last = snapshots[0], snapshots[-1]
    snap = last.get("snapshot", {})
    window = float(last.get("wall_time", 0.0)) - float(first.get("wall_time", 0.0))
    lines = [
        f"runtime report: {len(snapshots)} snapshot(s), "
        f"tick {last.get('tick', 0)}, window {max(window, 0.0):.2f}s"
    ]
    lines.extend(_study_table(snap.get("gauges", {})))
    rows: list[tuple[str, str, str]] = [("metric", "value", "rate")]
    base_counters = first.get("snapshot", {}).get("counters", {})
    for name, value in snap.get("counters", {}).items():
        if len(snapshots) > 1 and window > 0:
            rate = f"{(value - base_counters.get(name, 0.0)) / window:.1f}/s"
        else:
            rate = "-"
        rows.append((name, format_value(value), rate))
    for name, value in snap.get("gauges", {}).items():
        rows.append((name, format_value(value), "-"))
    for name, summary in snap.get("histograms", {}).items():
        count = int(summary.get("count", 0))
        detail = f"n={count}"
        if count:
            detail += f" p50={summary['p50']:.4g} p99={summary['p99']:.4g} max={summary['max']:.4g}"
        rows.append((name, detail, "-"))
    if len(rows) > 1:
        lines.extend(_table(rows, rule=True))
    return "\n".join(lines)


def _watch(path: str, interval: float) -> int:
    """Re-render the report as the file grows; exit once it stops growing."""
    last_size = -1
    stable = 0
    while stable < 2:
        try:
            size = os.path.getsize(path)
        except OSError:
            size = 0
        if size == last_size:
            stable += 1
        else:
            stable = 0
            snapshots = _load_snapshots(path) if size else []
            print(f"--- {path} ({size} bytes) ---")
            print(render_report(snapshots))
            sys.stdout.flush()
        last_size = size
        _time.sleep(interval)
    print("(file stopped growing)", file=sys.stderr)
    return 0


def _holds_events(path: str) -> bool:
    """Whether ``path`` is a ``JSONLSink`` event stream, not scraper snapshots.

    Told from the first record: every event has a ``kind``, no snapshot does.
    """
    with open(path, "r", encoding="utf-8") as handle:
        first = next((line for line in handle if line.strip()), None)
    return first is not None and "kind" in json.loads(first)


def _report_violations(what: str, violations: list[str]) -> int:
    for violation in violations:
        print(f"{what} violation: {violation}", file=sys.stderr)
    if not violations:
        print(f"{what}: ok", file=sys.stderr)
    return 1 if violations else 0


def _trace_main(args: argparse.Namespace) -> int:
    """The event-stream half of :func:`main`: rebuild the span/timeline trace."""
    trace = TraceBuilder.from_jsonl(args.file).build()
    status = 0
    if args.chrome:
        with open(args.chrome, "w", encoding="utf-8") as handle:
            handle.write(trace.chrome_trace_json())
        print(f"wrote {args.chrome}", file=sys.stderr)
    if args.validate:
        violations = validate_chrome_trace(trace.to_chrome_trace())
        status = _report_violations("chrome trace schema", violations)
    if args.report or not (args.chrome or args.validate):
        print(trace.render_report())
        if args.trial is not None:
            path = trace.critical_path(args.trial)
            print(f"critical path of trial {args.trial} (latency {path.total_latency:g}):")
            print(json.dumps(path.breakdown(), indent=2, sort_keys=True))
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.telemetry",
        description="Inspect an exported telemetry artefact: RuntimeScraper snapshots or a "
        "JSONLSink event stream, told apart by the file's first record.",
    )
    parser.add_argument("file", help="JSONL file written by RuntimeScraper or JSONLSink")
    parser.add_argument("--report", action="store_true",
                        help="print the report (the default): runtime health, or the run's "
                        "critical path, stragglers and utilisation")
    parser.add_argument("--validate", action="store_true",
                        help="check the Prometheus exposition, or the Chrome trace; exit 1 "
                        "on violations")
    parser.add_argument("--prom", action="store_true",
                        help="snapshots: print the last one as Prometheus text exposition")
    parser.add_argument("--watch", action="store_true",
                        help="snapshots: re-render the report as the file grows")
    parser.add_argument("--interval", type=float, default=1.0,
                        help="--watch poll interval in seconds (default 1.0)")
    parser.add_argument("--chrome", metavar="OUT.json",
                        help="events: write a Chrome trace-event (Perfetto) file")
    parser.add_argument("--trial", type=int, default=None,
                        help="events: also report the critical path of this trial id")
    args = parser.parse_args(argv)

    if args.watch:
        return _watch(args.file, args.interval)
    if _holds_events(args.file):
        if args.prom:
            parser.error("--prom reads scraper snapshots; this file holds events")
        return _trace_main(args)
    if args.chrome or args.trial is not None:
        parser.error("--chrome/--trial read an event stream; this file holds snapshots")

    snapshots = _load_snapshots(args.file)
    if not snapshots:
        print(f"{args.file}: no snapshots", file=sys.stderr)
        return 1

    status = 0
    if args.prom or args.validate:
        exposition = render_prometheus(snapshots[-1]["snapshot"])
        if args.prom:
            sys.stdout.write(exposition)
        if args.validate:
            status = _report_violations("exposition", validate_exposition(exposition))
    if args.report or not (args.prom or args.validate):
        print(render_report(snapshots))
    return status
