"""The emission fan-out: :class:`TelemetryHub` and its no-op null object.

Design constraints, in order:

1. **Zero cost when off.**  Schedulers and backends hold a hub reference
   unconditionally, but every emission site is guarded by a truthiness
   check — ``if self.telemetry: self.telemetry.emit(...)`` — and the
   :class:`NullHub` is falsy, so the disabled path is a single branch with
   no event construction, no locking, no sink calls.  Determinism tests and
   scheduler hot paths are unaffected by the subsystem existing.
2. **Determinism when on.**  Events carry the backend clock and a
   monotonically increasing sequence number; nothing about emission order
   depends on wall time, so a seeded simulation run produces an identical
   event stream every time.
3. **Thread safety.**  No backend emits from a worker thread
   (:class:`~repro.backend.threaded.ThreadPoolBackend` emits from the thread
   that called ``run``), but callers may share a hub across their own
   threads; the hub serialises ``emit`` with a lock so sinks never need
   their own.
"""

from __future__ import annotations

import threading
import time as _time
from typing import Any

from .events import EventKind, TelemetryEvent
from .metrics import MetricsCollector, MetricsReport
from .sinks import TelemetrySink

__all__ = ["TelemetryHub", "NullHub", "NULL_HUB"]


class TelemetryHub:
    """Collects lifecycle events from schedulers/backends and fans them out.

    Parameters
    ----------
    sinks:
        Consumers of the event stream (see :mod:`repro.telemetry.sinks`).
        More can be attached later with :meth:`add_sink`.
    wall_clock:
        Absolute-timestamp source for :attr:`TelemetryEvent.wall_time`;
        injectable for tests.
    """

    def __init__(
        self,
        sinks: list[TelemetrySink] | tuple[TelemetrySink, ...] = (),
        *,
        wall_clock=None,
    ):
        self.sinks: list[TelemetrySink] = list(sinks)
        self._wall_clock = wall_clock if wall_clock is not None else _time.time
        self._time = 0.0
        self._seq = 0
        self._lock = threading.Lock()

    @classmethod
    def with_metrics(cls, *extra_sinks: TelemetrySink) -> "TelemetryHub":
        """A hub pre-loaded with a :class:`MetricsCollector` (the common case)."""
        return cls([MetricsCollector(), *extra_sinks])

    # ------------------------------------------------------------- emission

    def __bool__(self) -> bool:
        return True

    def set_time(self, now: float) -> None:
        """Advance the backend clock; subsequent events are stamped ``now``.

        Backends call this once per event-loop step, so the scheduler's own
        events carry the backend clock.
        """
        self._time = now

    def emit(
        self,
        kind: EventKind,
        *,
        time: float | None = None,
        trial_id: int | None = None,
        job_id: int | None = None,
        worker_id: int | None = None,
        rung: int | None = None,
        bracket: int | None = None,
        **data: Any,
    ) -> TelemetryEvent:
        """Build one event and hand it to every sink (thread-safe)."""
        with self._lock:
            event = TelemetryEvent(
                seq=self._seq,
                kind=kind,
                time=self._time if time is None else time,
                wall_time=self._wall_clock(),
                trial_id=trial_id,
                job_id=job_id,
                worker_id=worker_id,
                rung=rung,
                bracket=bracket,
                data=data,
            )
            self._seq += 1
            for sink in self.sinks:
                sink.write(event)
        return event

    # ------------------------------------------------------------ lifecycle

    def add_sink(self, sink: TelemetrySink) -> None:
        with self._lock:
            self.sinks.append(sink)

    @property
    def metrics(self) -> MetricsCollector | None:
        """The first attached :class:`MetricsCollector`, if any."""
        for sink in self.sinks:
            if isinstance(sink, MetricsCollector):
                return sink
        return None

    def finalize(self, *, elapsed: float, num_workers: int) -> MetricsReport | None:
        """Close out a run: finalize collectors, flush sinks, return the report.

        Backends call this once at the end of ``run``; the returned report
        (``None`` if no collector is attached) is what lands on
        :attr:`repro.backend.trial_runner.BackendResult.telemetry`.  Any sink
        exposing a ``finalize(elapsed=, num_workers=)`` method (trace
        builders, live summaries) learns the run horizon the same way.
        """
        report = None
        with self._lock:
            for sink in self.sinks:
                fin = getattr(sink, "finalize", None)
                if callable(fin):
                    fin(elapsed=elapsed, num_workers=num_workers)
                if isinstance(sink, MetricsCollector) and report is None:
                    report = sink.report()
                sink.flush()
        return report

    def close(self) -> None:
        """Flush and close every sink (idempotent)."""
        with self._lock:
            for sink in self.sinks:
                sink.flush()
                sink.close()

    def __enter__(self) -> "TelemetryHub":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class NullHub:
    """Falsy no-op hub: the default wired into every scheduler and backend.

    Emission sites guard with ``if self.telemetry:``, so none of these
    methods run on the hot path; they exist so unguarded calls are still
    harmless.
    """

    __slots__ = ()

    def __bool__(self) -> bool:
        return False

    def set_time(self, now: float) -> None:
        pass

    def emit(self, kind: EventKind, **kwargs: Any) -> None:
        pass

    def finalize(self, **kwargs: Any) -> None:
        pass

    def close(self) -> None:
        pass

    @property
    def metrics(self) -> None:
        return None


#: Shared singleton; there is never a reason to hold a second NullHub.
NULL_HUB = NullHub()
