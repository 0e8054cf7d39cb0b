"""Event consumers: in-memory (tests), JSONL (offline analysis), live ASCII.

A sink is anything with ``write(event)`` / ``flush()`` / ``close()``.  Sinks
never see events concurrently — the hub serialises emission — so they need
no locking of their own.
"""

from __future__ import annotations

import errno
import io
import os
from typing import IO, Any, Protocol, runtime_checkable

from ..canonical import encode_canonical
from .events import TelemetryEvent
from .metrics import MetricsCollector

__all__ = ["TelemetrySink", "InMemorySink", "JSONLSink", "LiveSummarySink", "render_summary"]


@runtime_checkable
class TelemetrySink(Protocol):
    """Structural interface every sink implements."""

    def write(self, event: TelemetryEvent) -> None: ...

    def flush(self) -> None: ...

    def close(self) -> None: ...


class InMemorySink:
    """Keep every event in a list — the test-suite workhorse."""

    def __init__(self) -> None:
        self.events: list[TelemetryEvent] = []

    def write(self, event: TelemetryEvent) -> None:
        self.events.append(event)

    def flush(self) -> None:
        pass

    def close(self) -> None:
        pass

    def __len__(self) -> int:
        return len(self.events)

    def kinds(self) -> list[str]:
        """Event kind values in emission order (handy in assertions)."""
        return [e.kind.value for e in self.events]


class JSONLSink:
    """Append one JSON object per event to a file (or file-like object).

    The serialisation is canonical — sorted keys, fixed separators, ``None``
    fields omitted, wall-clock excluded unless asked for — so a seeded
    simulation run exports a **byte-identical** file every time.  That is
    the property regression tests and offline diffing lean on.  Encoding
    is :func:`repro.canonical.encode_canonical` (the historical
    ``json.dumps`` call from one prebuilt encoder, pinned by
    ``tests/telemetry/test_canonical.py``) — one line per event makes this
    the hottest serialisation site when a sink is attached.
    """

    def __init__(self, path: str | os.PathLike[str] | IO[str], *, include_wall_time: bool = False):
        self.include_wall_time = include_wall_time
        if hasattr(path, "write"):
            self._file: IO[str] = path  # type: ignore[assignment]
            self._owns_file = False
        else:
            self._file = open(path, "w", encoding="utf-8")
            self._owns_file = True
        self._closed = False

    def write(self, event: TelemetryEvent) -> None:
        if self._closed:
            raise ValueError("JSONLSink is closed")
        line = encode_canonical(event.to_dict(include_wall_time=self.include_wall_time))
        self._file.write(line + "\n")

    def flush(self) -> None:
        if not self._closed:
            self._file.flush()

    def finalize(self, **_: Any) -> None:
        """End-of-run durability: flush and fsync the file to disk.

        The hub duck-types ``finalize`` onto any sink exposing it; for a
        JSONL stream the useful end-of-run action is making the bytes
        durable, so a crash *after* a run completes can never lose the tail
        of its event log.  Only a stream with nothing to sync skips it: one
        without a descriptor (``io.StringIO``) or whose descriptor is a pipe
        or terminal (``EINVAL``).  A sync that fails on a real file raises.
        """
        if self._closed:
            return
        self._file.flush()
        try:
            fd = self._file.fileno()
        except (AttributeError, io.UnsupportedOperation):
            return
        try:
            os.fsync(fd)
        except OSError as exc:
            if exc.errno != errno.EINVAL:
                raise

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._file.flush()
        if self._owns_file:
            self._file.close()


class LiveSummarySink:
    """Render a rolling ASCII summary of the run every ``every`` events.

    Owns a private :class:`MetricsCollector` so it can be attached alone;
    the output reuses the repo's ASCII-chart sparklines, keeping the whole
    observability stack dependency-free.
    """

    def __init__(self, stream: IO[str] | None = None, *, every: int = 200):
        if every < 1:
            raise ValueError(f"every must be >= 1, got {every}")
        import sys

        self.stream = stream if stream is not None else sys.stderr
        self.every = every
        self.collector = MetricsCollector()
        self._since_render = 0
        self._finalized = False
        self._final_rendered = False

    def write(self, event: TelemetryEvent) -> None:
        self.collector.write(event)
        self._since_render += 1
        if self._since_render >= self.every:
            self._since_render = 0
            self.stream.write(render_summary(self.collector, now=event.time) + "\n")

    def finalize(self, *, elapsed: float, num_workers: int) -> None:
        """Learn the run horizon (the hub calls this at end of run)."""
        self.collector.finalize(elapsed=elapsed, num_workers=num_workers)
        self._finalized = True

    def flush(self) -> None:
        self.stream.flush()

    def close(self) -> None:
        # Final render: the one-call markdown summary of the whole run,
        # emitted once the horizon is known (i.e. the run finalized).
        if self._finalized and not self._final_rendered:
            self._final_rendered = True
            self.stream.write("final summary\n")
            self.stream.write(self.collector.report().to_markdown() + "\n")
        self.flush()


def render_summary(collector: MetricsCollector, *, now: float | None = None) -> str:
    """One telemetry dashboard frame as plain text.

    Shows the headline counters, rung occupancy as a bar-per-rung, the
    cluster-busy sparkline, and the promotion-latency/queue-wait summaries.
    """
    from ..analysis.ascii_chart import sparkline

    reg = collector.registry
    counters = reg.counters
    lines = []
    header = "telemetry"
    if now is not None:
        header += f" @ t={now:g}"
    lines.append(header)
    headline = [
        ("trials", "trials_started"),
        ("jobs", "jobs_started"),
        ("reports", "events.report"),
        ("promotions", "promotions"),
        ("failures", "jobs_failed"),
        ("restores", "checkpoint_restores"),
        ("idle polls", "worker_idle_polls"),
    ]
    parts = [
        f"{label}={int(counters[key].value)}" for label, key in headline if key in counters
    ]
    if parts:
        lines.append("  " + "  ".join(parts))

    occupancy = collector.rung_occupancy()
    if occupancy:
        widest = max(occupancy.values())
        for rung, count in occupancy.items():
            bar = "#" * max(int(count / widest * 40), 1)
            lines.append(f"  rung {rung:>2} |{bar:<40}| {count}")

    series = collector._busy_totals
    if series:
        lines.append(f"  busy worker-time {sparkline(series[-60:])} ({series[-1]:g})")

    for name in ("promotion_latency", "queue_wait"):
        hist = reg.histograms.get(name)
        if hist is not None and hist.count:
            summary = hist.summary()
            lines.append(
                f"  {name}: n={summary['count']} mean={summary['mean']:.3g} "
                f"p50={summary['p50']:.3g} p90={summary['p90']:.3g} max={summary['max']:.3g}"
            )
    return "\n".join(lines)
