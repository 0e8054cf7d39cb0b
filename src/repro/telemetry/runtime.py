"""Runtime probe layer: observe the service internals, not just the search.

The telemetry package (PR 1) watches the *scheduling domain* — trials,
rungs, promotions.  Everything underneath it — the calendar-queue
:class:`~repro.backend.events.EventQueue`, the WAL group commit in
:class:`~repro.study.journal.JournalWriter`, the
:class:`~repro.study.multiplex.StudyMultiplexer` fair-share dispatcher,
the thread/process backends — was a black box.  This module makes those
internals observable without making them slower when nobody is looking:

* :class:`RuntimeRegistry` — a :class:`~repro.telemetry.MetricsRegistry`
  that adds Prometheus-style *labelled* instruments
  (``registry.counter("wal_fsync_total", labels={"backend": "wal"})``),
  per-family help/type metadata, and scrape-time *collectors* (callbacks
  that compute gauges such as queue occupancy on demand instead of on
  every operation).
* A process-global install point — :func:`install_runtime_registry` /
  :func:`uninstall_runtime_registry` / :func:`runtime_registry` — plus the
  falsy :data:`NULL_PROBE` default.  Instrumented hot paths resolve their
  probe bundle once at construction; with no registry installed the bundle
  is ``None`` and every call site pays a single attribute load + branch.
* :func:`render_prometheus` — byte-stable Prometheus text exposition
  (sorted families, sorted samples, stable float formatting) — and
  :func:`validate_exposition`, a strict parser returning violations.
* :class:`RuntimeScraper` — a shared-clock snapshot scraper: hook its
  :meth:`~RuntimeScraper.on_tick` into ``drive_runs`` (the
  ``StudyMultiplexer(scraper=...)`` argument does this for you) and it
  appends a canonical-JSON registry snapshot to a JSONL file every N
  simulated ticks.
* An ops CLI: ``python -m repro.telemetry.runtime snapshots.jsonl
  --watch/--prom/--report`` renders a live multiplexer health table,
  the full metric report, or the Prometheus text of the last snapshot.

Install order matters: probes are resolved when the instrumented object is
*constructed*, so install the registry before building studies, queues,
multiplexers or backends::

    from repro.telemetry.runtime import RuntimeScraper, install_runtime_registry

    registry = install_runtime_registry()
    mux = StudyMultiplexer(wal_path=..., scraper=RuntimeScraper(registry, "snap.jsonl"))
    ...
    print(render_prometheus(registry))

Wall-clock readings (fsync latency, tell latency) live only in the
registry — never in records, journals or traces — so enabled probes keep
every byte-identity guarantee of the unprobed system.

See ``docs/observability.md`` for the probe catalogue and the overhead
budget (CI-gated by the ``observability_overhead`` benchmark).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
import time as _time
import weakref
from typing import Any, Callable

from ..canonical import encode_canonical
from .metrics import DEFAULT_SERIES_BOUND, Counter, Gauge, Histogram, MetricsRegistry

__all__ = [
    "NULL_PROBE",
    "NullProbe",
    "RuntimeRegistry",
    "RuntimeScraper",
    "install_runtime_registry",
    "uninstall_runtime_registry",
    "runtime_registry",
    "render_prometheus",
    "validate_exposition",
    "render_report",
    "main",
]

_METRIC_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_NAME_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: Per-study labelled gauges are emitted for at most this many studies;
#: beyond the cap only the aggregate gauges (``mux_starvation_age_max_ticks``,
#: ``mux_pending_asks_cluster``) are kept, so a 10k-study multiplexer does
#: not explode the exposition's cardinality.
MUX_STUDY_LABEL_CAP = 64


class NullProbe:
    """Falsy no-op instrument: the default when no registry is installed.

    Mirrors :class:`~repro.telemetry.hub.NullHub` — supports the union of
    the :class:`Counter`/:class:`Gauge`/:class:`Histogram` write APIs so a
    call site holding :data:`NULL_PROBE` never branches on metric kind.
    """

    __slots__ = ()

    def __bool__(self) -> bool:
        return False

    def inc(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float, *, time: float | None = None) -> None:
        pass

    def observe(self, value: float) -> None:
        pass


NULL_PROBE = NullProbe()


def _escape_label_value(value: str) -> str:
    return value.replace("\\", "\\\\").replace("\n", "\\n").replace('"', '\\"')


def _escape_help(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _series_key(name: str, labels: dict[str, Any] | None) -> str:
    """Mangle ``name`` + sorted labels into the registry key / sample name."""
    if not labels:
        return name
    inner = ",".join(
        f'{key}="{_escape_label_value(str(value))}"' for key, value in sorted(labels.items())
    )
    return f"{name}{{{inner}}}"


def _split_series_key(key: str) -> tuple[str, str]:
    """Inverse of :func:`_series_key`: ``(base name, inner label string)``."""
    if key.endswith("}"):
        brace = key.find("{")
        if brace >= 0:
            return key[:brace], key[brace + 1 : -1]
    return key, ""


_LABEL_PAIR_RE = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:\\.|[^"\\])*)"')


def _parse_label_string(inner: str) -> dict[str, str]:
    return {match.group(1): match.group(2) for match in _LABEL_PAIR_RE.finditer(inner)}


def _format_value(value: float) -> str:
    """Stable float formatting: integers bare, else shortest round-trip."""
    value = float(value)
    if math.isnan(value):
        return "NaN"
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if value.is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


class RuntimeRegistry(MetricsRegistry):
    """Metrics registry with labels, family metadata and scrape collectors.

    ``counter``/``gauge``/``histogram`` gain optional ``help`` and
    ``labels`` keyword arguments; each base name becomes an exposition
    *family* with a type, help text and the union of observed label names.
    Collectors registered via :meth:`add_collector` run at snapshot time
    (so occupancy-style gauges cost nothing per operation); a collector
    that returns ``False`` is pruned — the idiom for weakref'd subjects
    that have been garbage-collected.
    """

    def __init__(self, *, gauge_series_bound: int | None = DEFAULT_SERIES_BOUND) -> None:
        super().__init__(gauge_series_bound=gauge_series_bound)
        #: base name -> {"type", "help", "labels": sorted label names}
        self._families: dict[str, dict[str, Any]] = {}
        self._collectors: list[Callable[[], Any]] = []
        #: Shared probe bundles (``journal_probes()`` etc.) keyed by kind:
        #: bundle construction does label mangling and family registration,
        #: which a 10k-study multiplexer must not repeat per study.
        self._probe_cache: dict[str, Any] = {}

    # ------------------------------------------------------------- families

    def _register_family(
        self,
        kind: str,
        name: str,
        help: str | None,
        labels: dict[str, Any] | None,
    ) -> str:
        if not _METRIC_NAME_RE.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        label_names = sorted(labels) if labels else []
        for label in label_names:
            if not _LABEL_NAME_RE.match(label):
                raise ValueError(f"invalid label name {label!r} on metric {name!r}")
        family = self._families.get(name)
        if family is None:
            self._families[name] = {"type": kind, "help": help or "", "labels": label_names}
        else:
            if family["type"] != kind:
                raise ValueError(
                    f"metric {name!r} already registered as {family['type']}, not {kind}"
                )
            if help and not family["help"]:
                family["help"] = help
            merged = set(family["labels"]).union(label_names)
            family["labels"] = sorted(merged)
        return _series_key(name, labels)

    # ----------------------------------------------------- labelled lookups

    def counter(
        self,
        name: str,
        *,
        help: str | None = None,
        labels: dict[str, Any] | None = None,
    ) -> Counter:
        return super().counter(self._register_family("counter", name, help, labels))

    def gauge(
        self,
        name: str,
        *,
        help: str | None = None,
        labels: dict[str, Any] | None = None,
    ) -> Gauge:
        return super().gauge(self._register_family("gauge", name, help, labels))

    def histogram(
        self,
        name: str,
        *,
        help: str | None = None,
        labels: dict[str, Any] | None = None,
    ) -> Histogram:
        return super().histogram(self._register_family("histogram", name, help, labels))

    # ----------------------------------------------------------- collectors

    def add_collector(self, collector: Callable[[], Any]) -> None:
        """Register a scrape-time callback; return ``False`` to be pruned."""
        self._collectors.append(collector)

    def collect(self) -> None:
        """Run every collector, pruning the ones that report themselves dead."""
        if not self._collectors:
            return
        self._collectors = [c for c in self._collectors if c() is not False]

    # ------------------------------------------------------------- snapshot

    def snapshot(self) -> dict[str, Any]:
        self.collect()
        snap = super().snapshot()
        snap["families"] = {
            name: {"type": fam["type"], "help": fam["help"], "labels": list(fam["labels"])}
            for name, fam in sorted(self._families.items())
        }
        return snap


# --------------------------------------------------------------------------
# Process-global install point
# --------------------------------------------------------------------------

_REGISTRY: RuntimeRegistry | None = None


def install_runtime_registry(registry: RuntimeRegistry | None = None) -> RuntimeRegistry:
    """Install ``registry`` (or a fresh one) as the process-global registry.

    Instrumented classes resolve their probes at construction, so install
    *before* building queues, studies, multiplexers or backends.  Returns
    the installed registry.
    """
    global _REGISTRY
    if registry is None:
        registry = RuntimeRegistry()
    _REGISTRY = registry
    return registry


def uninstall_runtime_registry() -> None:
    """Remove the process-global registry; new call sites go back to no-ops."""
    global _REGISTRY
    _REGISTRY = None


def runtime_registry() -> RuntimeRegistry | None:
    """The installed registry, or ``None`` when probing is off."""
    return _REGISTRY


# --------------------------------------------------------------------------
# Probe bundles (one per instrumented subsystem)
# --------------------------------------------------------------------------
#
# Each bundle is a slotted struct of pre-resolved instruments.  The
# accessor returns ``None`` when no registry is installed, so the hot-path
# contract everywhere is::
#
#     probes = self._probes          # resolved once, at construction
#     if probes is not None:
#         probes.pushes.inc()
#
# Label resolution, name mangling and dict lookups all happen here, once.


class QueueProbes:
    """Throughput counters for one :class:`~repro.backend.events.EventQueue`."""

    __slots__ = ("pushes", "pops", "resizes")

    pushes: Counter
    pops: Counter
    resizes: Counter


def instrument_queue(queue: Any) -> QueueProbes | None:
    """Probes + an occupancy collector for a calendar ``EventQueue``.

    Occupancy (events held, bucket-ring size, bucket width) is computed by
    a scrape-time collector over a weak reference, so ``push``/``pop`` pay
    only a counter increment.  With several live queues the occupancy
    gauges reflect the most recently constructed one (the multiplexer has
    exactly one shared queue, which is the case that matters).
    """
    registry = _REGISTRY
    if registry is None:
        return None
    probes = QueueProbes()
    probes.pushes = registry.counter(
        "event_queue_pushes_total", help="Events pushed onto the calendar queue."
    )
    probes.pops = registry.counter(
        "event_queue_pops_total", help="Events popped off the calendar queue."
    )
    probes.resizes = registry.counter(
        "event_queue_resizes_total", help="Bucket-ring rebuilds (adaptive width resizes)."
    )
    ref = weakref.ref(queue)

    def collect() -> bool:
        live = ref()
        if live is None:
            return False
        registry.gauge(
            "event_queue_depth", help="Events currently held by the calendar queue."
        ).set(float(len(live)))
        registry.gauge(
            "event_queue_buckets", help="Occupied buckets in the calendar ring."
        ).set(float(len(live._buckets)))
        registry.gauge(
            "event_queue_bucket_width", help="Current adaptive bucket width (sim time units)."
        ).set(float(live._width))
        return True

    registry.add_collector(collect)
    return probes


class JournalProbes:
    """Per-journal write/fsync instruments (shared by all journals)."""

    __slots__ = ("bytes", "fsyncs", "fsync_seconds")

    bytes: Counter
    fsyncs: Counter
    fsync_seconds: Histogram


def journal_probes() -> JournalProbes | None:
    registry = _REGISTRY
    if registry is None:
        return None
    cached = registry._probe_cache.get("journal")
    if cached is not None:
        return cached
    probes = JournalProbes()
    probes.bytes = registry.counter(
        "journal_bytes_total", help="Payload bytes appended to study journals."
    )
    probes.fsyncs = registry.counter(
        "journal_fsync_total",
        help="Journal-file fsyncs (finalize / non-WAL durability).",
        labels={"target": "journal"},
    )
    probes.fsync_seconds = registry.histogram(
        "journal_fsync_seconds",
        help="Journal-file fsync latency in seconds.",
        labels={"target": "journal"},
    )
    registry._probe_cache["journal"] = probes
    return probes


class WalProbes:
    """Group-commit instruments for :class:`~repro.study.journal.JournalWriter`."""

    __slots__ = ("commits", "commit_bytes", "commit_journals", "fsyncs", "fsync_seconds")

    commits: Counter
    commit_bytes: Histogram
    commit_journals: Histogram
    fsyncs: Counter
    fsync_seconds: Histogram


def wal_probes() -> WalProbes | None:
    registry = _REGISTRY
    if registry is None:
        return None
    cached = registry._probe_cache.get("wal")
    if cached is not None:
        return cached
    probes = WalProbes()
    probes.commits = registry.counter(
        "wal_commits_total", help="Group-commit windows flushed through the shared WAL."
    )
    probes.commit_bytes = registry.histogram(
        "wal_commit_bytes", help="Bytes written to the WAL per commit window."
    )
    probes.commit_journals = registry.histogram(
        "wal_commit_window_journals", help="Dirty journals drained per commit window."
    )
    probes.fsyncs = registry.counter(
        "journal_fsync_total",
        help="WAL fsyncs (one per dirty commit window).",
        labels={"target": "wal"},
    )
    probes.fsync_seconds = registry.histogram(
        "journal_fsync_seconds",
        help="WAL fsync latency in seconds.",
        labels={"target": "wal"},
    )
    registry._probe_cache["wal"] = probes
    return probes


class StudyProbes:
    """Ask/tell count and tell-latency instruments for ``Study``."""

    __slots__ = ("ask_batch_jobs", "tell_batch_results", "tell_seconds")

    ask_batch_jobs: Histogram
    tell_batch_results: Histogram
    tell_seconds: Histogram


def study_probes() -> StudyProbes | None:
    registry = _REGISTRY
    if registry is None:
        return None
    cached = registry._probe_cache.get("study")
    if cached is not None:
        return cached
    probes = StudyProbes()
    probes.ask_batch_jobs = registry.histogram(
        "study_ask_batch_jobs", help="Jobs handed out per Study.ask call (count = jobs asked)."
    )
    probes.tell_batch_results = registry.histogram(
        "study_tell_batch_results",
        help="Results ingested per Study.tell call (count = results told).",
    )
    probes.tell_seconds = registry.histogram(
        "study_tell_seconds",
        help="Wall-clock latency of Study.tell in seconds (one tell in eight is timed).",
    )
    registry._probe_cache["study"] = probes
    return probes


class BackendProbes:
    """Dispatch/collect depth and retry counters for one backend kind."""

    __slots__ = ("dispatches", "collects", "retries", "in_flight")

    dispatches: Counter
    collects: Counter
    retries: Counter
    in_flight: Gauge


def backend_probes(backend: str) -> BackendProbes | None:
    """Labelled probes for a worker backend (``threads`` / ``processes``)."""
    registry = _REGISTRY
    if registry is None:
        return None
    cached = registry._probe_cache.get(f"backend:{backend}")
    if cached is not None:
        return cached
    labels = {"backend": backend}
    probes = BackendProbes()
    probes.dispatches = registry.counter(
        "backend_dispatch_total", help="Jobs handed to backend workers.", labels=labels
    )
    probes.collects = registry.counter(
        "backend_collect_total", help="Job results collected from backend workers.", labels=labels
    )
    probes.retries = registry.counter(
        "backend_retries_total",
        help="Backend-level retries (re-dispatches, inline recomputes after pool loss).",
        labels=labels,
    )
    probes.in_flight = registry.gauge(
        "backend_in_flight", help="Jobs currently dispatched and not yet collected.", labels=labels
    )
    registry._probe_cache[f"backend:{backend}"] = probes
    return probes


class MuxProbes:
    """Shared-clock instruments for :class:`~repro.study.multiplex.StudyMultiplexer`.

    ``tick_box`` is a one-element list holding the current tick count; the
    multiplexer's ``on_tick`` advances it and ``SimRun.fill_round`` reads it
    to stamp ``last_dispatch_tick`` — the basis of the starvation-age
    gauges, which are computed by a scrape-time collector.
    """

    __slots__ = ("tick_box", "ticks", "throttles", "dispatches")

    tick_box: list[int]
    ticks: Counter
    throttles: Counter
    dispatches: Counter


def mux_probes(mux: Any) -> MuxProbes | None:
    registry = _REGISTRY
    if registry is None:
        return None
    probes = MuxProbes()
    probes.tick_box = [0]
    probes.ticks = registry.counter(
        "mux_ticks_total", help="Shared-clock ticks driven by the multiplexer."
    )
    probes.throttles = registry.counter(
        "mux_throttle_total", help="Fill rounds cut short by the fair_share cap."
    )
    probes.dispatches = registry.counter(
        "mux_dispatched_jobs_total", help="Jobs dispatched across all multiplexed studies."
    )
    mux_ref = weakref.ref(mux)
    tick_box = probes.tick_box

    def collect() -> bool:
        live = mux_ref()
        if live is None:
            return False
        now = tick_box[0]
        max_age = 0
        total_pending = 0
        active = 0
        for index, run in enumerate(live._runs):
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
                study = {"study": str(index)}
                registry.gauge(
                    "mux_pending_asks",
                    help="Free worker slots waiting for a job, per study.",
                    labels=study,
                ).set(float(pending))
                registry.gauge(
                    "mux_starvation_age_ticks",
                    help="Ticks since a study with pending demand last dispatched.",
                    labels=study,
                ).set(float(age))
        registry.gauge(
            "mux_studies_active", help="Multiplexed studies not yet finished."
        ).set(float(active))
        registry.gauge(
            "mux_pending_asks_cluster", help="Free worker slots across all studies."
        ).set(float(total_pending))
        registry.gauge(
            "mux_starvation_age_max_ticks",
            help="Worst starvation age across all studies (incl. beyond the label cap).",
        ).set(float(max_age))
        return True

    registry.add_collector(collect)
    return probes


# --------------------------------------------------------------------------
# Prometheus text exposition
# --------------------------------------------------------------------------

_TYPE_BY_SECTION = {"counters": "counter", "gauges": "gauge", "histograms": "histogram"}
_EXPO_TYPE = {"counter": "counter", "gauge": "gauge", "histogram": "summary"}


def render_prometheus(source: Any) -> str:
    """Byte-stable Prometheus text exposition of a registry (or snapshot).

    ``source`` is a :class:`RuntimeRegistry` (``snapshot()`` is taken, which
    runs collectors) or an already-taken snapshot dict — the form the
    :class:`RuntimeScraper` writes to JSONL, which is how the CLI renders
    ``--prom`` offline.  Families are emitted in sorted order, samples in
    sorted order within each family, histograms as Prometheus *summaries*
    (``quantile`` samples plus ``_sum``/``_count``).  Rendering the same
    run twice produces identical bytes.
    """
    snap = source.snapshot() if hasattr(source, "snapshot") else source
    families_meta = snap.get("families", {})

    # family base name -> {"type", "help", "samples": [(sort key, line)]}
    families: dict[str, dict[str, Any]] = {}

    def family_for(base: str, section: str) -> dict[str, Any]:
        family = families.get(base)
        if family is None:
            meta = families_meta.get(base)
            if meta is None:
                meta = {"type": _TYPE_BY_SECTION[section], "help": ""}
            families[base] = family = {
                "type": meta["type"],
                "help": meta.get("help", ""),
                "samples": [],
            }
        return family

    for section in ("counters", "gauges"):
        for key, value in snap.get(section, {}).items():
            base, _ = _split_series_key(key)
            family = family_for(base, section)
            family["samples"].append((key, f"{key} {_format_value(value)}"))

    for key, summary in snap.get("histograms", {}).items():
        base, inner = _split_series_key(key)
        family = family_for(base, "histograms")
        labels = _parse_label_string(inner)
        count = summary.get("count", 0)
        if count:
            for rank, quantile in (("p50", "0.5"), ("p90", "0.9"), ("p99", "0.99")):
                qkey = _series_key(base, {**labels, "quantile": quantile})
                family["samples"].append(
                    (f"{key}~0q{quantile}", f"{qkey} {_format_value(summary[rank])}")
                )
        total = summary.get("sum", 0.0)
        sum_key = _series_key(f"{base}_sum", labels or None)
        count_key = _series_key(f"{base}_count", labels or None)
        family["samples"].append((f"{key}~1sum", f"{sum_key} {_format_value(total)}"))
        family["samples"].append((f"{key}~2count", f"{count_key} {_format_value(count)}"))

    lines: list[str] = []
    for base in sorted(families):
        family = families[base]
        if family["help"]:
            lines.append(f"# HELP {base} {_escape_help(family['help'])}")
        lines.append(f"# TYPE {base} {_EXPO_TYPE[family['type']]}")
        for _, line in sorted(family["samples"]):
            lines.append(line)
    return "\n".join(lines) + "\n" if lines else ""


_VALID_EXPO_TYPES = {"counter", "gauge", "summary", "histogram", "untyped"}
_SAMPLE_RE = re.compile(
    r"^([a-zA-Z_:][a-zA-Z0-9_:]*)"  # metric name
    r"(?:\{((?:[a-zA-Z_][a-zA-Z0-9_]*=\"(?:\\.|[^\"\\])*\")"
    r"(?:,[a-zA-Z_][a-zA-Z0-9_]*=\"(?:\\.|[^\"\\])*\")*)?\})?"  # optional labels
    r" (\S+)$"  # value
)


def validate_exposition(text: str) -> list[str]:
    """Strictly parse Prometheus text exposition; return a list of violations.

    Checks the invariants :func:`render_prometheus` promises: every sample
    belongs to a ``# TYPE``-declared family, families appear exactly once
    and in sorted order, label strings are well-formed, values parse,
    counters are non-negative, no sample name (labels included) repeats,
    and the text ends with a newline.  An empty list means the exposition
    is valid.
    """
    violations: list[str] = []
    if not text:
        return ["empty exposition"]
    if not text.endswith("\n"):
        violations.append("exposition must end with a newline")
    typed: dict[str, str] = {}
    last_family: str | None = None
    current_family: str | None = None
    seen_samples: set[str] = set()
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line:
            violations.append(f"line {lineno}: blank line")
            continue
        if line.startswith("# TYPE "):
            parts = line.split(" ")
            if len(parts) != 4:
                violations.append(f"line {lineno}: malformed TYPE line")
                continue
            _, _, name, kind = parts
            if not _METRIC_NAME_RE.match(name):
                violations.append(f"line {lineno}: invalid family name {name!r}")
            if kind not in _VALID_EXPO_TYPES:
                violations.append(f"line {lineno}: invalid type {kind!r} for {name}")
            if name in typed:
                violations.append(f"line {lineno}: duplicate TYPE for family {name}")
            if last_family is not None and name <= last_family:
                violations.append(
                    f"line {lineno}: family {name} out of sorted order (after {last_family})"
                )
            typed[name] = kind
            last_family = name
            current_family = name
            continue
        if line.startswith("# HELP "):
            parts = line.split(" ", 3)
            if len(parts) < 4 or not _METRIC_NAME_RE.match(parts[2]):
                violations.append(f"line {lineno}: malformed HELP line")
            continue
        if line.startswith("#"):
            continue  # free-form comment
        match = _SAMPLE_RE.match(line)
        if match is None:
            violations.append(f"line {lineno}: malformed sample {line!r}")
            continue
        name, _, value = match.groups()
        try:
            parsed = float(value)
        except ValueError:
            violations.append(f"line {lineno}: unparseable value {value!r}")
            continue
        family = current_family
        if family is None:
            violations.append(f"line {lineno}: sample {name} before any # TYPE")
            continue
        base_ok = name == family or (
            typed.get(family) in ("summary", "histogram")
            and name in (f"{family}_sum", f"{family}_count", f"{family}_bucket")
        )
        if not base_ok:
            violations.append(
                f"line {lineno}: sample {name} does not belong to family {family}"
            )
            continue
        sample_key = line.rsplit(" ", 1)[0]
        if sample_key in seen_samples:
            violations.append(f"line {lineno}: duplicate sample {sample_key}")
        seen_samples.add(sample_key)
        if typed.get(family) == "counter" and not math.isnan(parsed) and parsed < 0:
            violations.append(f"line {lineno}: counter {name} is negative ({value})")
    return violations


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

    def __init__(self, registry: RuntimeRegistry, path: str | os.PathLike[str],
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
    snapshots = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                snapshots.append(json.loads(line))
    return snapshots


def _study_table(gauges: dict[str, float]) -> list[str]:
    """The per-study multiplexer health table, from labelled gauges."""
    studies: dict[str, dict[str, float]] = {}
    for key, value in gauges.items():
        base, inner = _split_series_key(key)
        if base not in ("mux_pending_asks", "mux_starvation_age_ticks"):
            continue
        study = _parse_label_string(inner).get("study")
        if study is not None:
            studies.setdefault(study, {})[base] = value
    if not studies:
        return []
    rows = [("study", "pending_asks", "starvation_age")]
    ordered = sorted(studies.items(), key=lambda item: (len(item[0]), item[0]))
    shown = ordered[:16]
    for study, values in shown:
        rows.append(
            (
                study,
                _format_value(values.get("mux_pending_asks", 0.0)),
                _format_value(values.get("mux_starvation_age_ticks", 0.0)),
            )
        )
    widths = [max(len(row[col]) for row in rows) for col in range(3)]
    lines = ["multiplexer health:"]
    lines.append("  " + "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(rows[0])))
    for row in rows[1:]:
        lines.append("  " + "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
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

    rows: list[tuple[str, str, str]] = []
    base_counters = first.get("snapshot", {}).get("counters", {})
    for name, value in snap.get("counters", {}).items():
        if len(snapshots) > 1 and window > 0:
            rate = f"{(value - base_counters.get(name, 0.0)) / window:.1f}/s"
        else:
            rate = "-"
        rows.append((name, _format_value(value), rate))
    for name, value in snap.get("gauges", {}).items():
        rows.append((name, _format_value(value), "-"))
    for name, summary in snap.get("histograms", {}).items():
        count = int(summary.get("count", 0))
        if count:
            detail = (
                f"n={count} p50={summary['p50']:.4g} "
                f"p99={summary['p99']:.4g} max={summary['max']:.4g}"
            )
        else:
            detail = "n=0"
        rows.append((name, detail, "-"))
    if rows:
        header = ("metric", "value", "rate")
        widths = [
            max(len(header[col]), max(len(row[col]) for row in rows)) for col in range(3)
        ]
        lines.append("  ".join(header[col].ljust(widths[col]) for col in range(3)))
        lines.append("  ".join("-" * widths[col] for col in range(3)))
        for row in rows:
            lines.append("  ".join(row[col].ljust(widths[col]) for col in range(3)))
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


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.telemetry.runtime",
        description="Inspect runtime-probe snapshots scraped by RuntimeScraper.",
    )
    parser.add_argument("snapshots", help="JSONL snapshot file written by RuntimeScraper")
    parser.add_argument("--report", action="store_true",
                        help="print the health report for the last snapshot")
    parser.add_argument("--prom", action="store_true",
                        help="print the last snapshot as Prometheus text exposition")
    parser.add_argument("--watch", action="store_true",
                        help="re-render the report as the file grows; exit when it stops")
    parser.add_argument("--validate", action="store_true",
                        help="validate the Prometheus exposition; exit 1 on violations")
    parser.add_argument("--interval", type=float, default=1.0,
                        help="--watch poll interval in seconds (default 1.0)")
    args = parser.parse_args(argv)

    if args.watch:
        return _watch(args.snapshots, args.interval)

    snapshots = _load_snapshots(args.snapshots)
    if not snapshots:
        print(f"{args.snapshots}: no snapshots", file=sys.stderr)
        return 1

    status = 0
    if args.prom or args.validate:
        exposition = render_prometheus(snapshots[-1]["snapshot"])
        if args.prom:
            sys.stdout.write(exposition)
        if args.validate:
            violations = validate_exposition(exposition)
            for violation in violations:
                print(f"exposition violation: {violation}", file=sys.stderr)
            if violations:
                status = 1
            else:
                print("exposition: ok", file=sys.stderr)
    if args.report or not (args.prom or args.validate):
        print(render_report(snapshots))
    return status


if __name__ == "__main__":
    raise SystemExit(main())
