"""Timing proxies: how each layer is measured without touching ``src/``.

Two mechanisms, both from :class:`spans.Tracer`:

* **subclasses** for objects the benchmark constructs and hands to a public
  constructor — ``Study(scheduler, journal=TracedJournal(...))``,
  ``SimRun(queue=TracedEventQueue())``, ``cluster.run(telemetry=TracedHub)``,
  ``run_methods(executor=SpanExecutor(...))``;
* **instance patches** for objects that come back out of somebody else's
  factory — schedulers and their searchers, objectives, a hub's sinks, the
  multiplexer's ``journal_writer``.

Every proxy only *adds a span around* the call it forwards: same arguments,
same return value, same exceptions, same order.  That observational purity
is what the traced-equals-untraced check of every workload enforces.
"""

from __future__ import annotations

import gc
from concurrent.futures import Executor, Future
from typing import Any

from repro.backend.events import EventQueue
from repro.backend.simulation import SimRun, SimulatedCluster, drive_runs
from repro.study import Journal, Study
from repro.telemetry import JSONLSink, MetricsCollector, TelemetryHub
from repro.telemetry.tracing import TraceBuilder

from spans import Tracer

__all__ = [
    "SpanExecutor",
    "instrument_journal_writer",
    "instrument_loss",
    "instrument_objective",
    "instrument_scheduler",
    "run_traced_simulation",
    "traced_event_queue",
    "traced_hub",
    "traced_journal",
    "traced_study",
]


def _one(result: Any, args: tuple) -> int:
    return 1


def _job_or_none(result: Any, args: tuple) -> int:
    return 0 if result is None else 1


def _len_result(result: Any, args: tuple) -> int:
    return len(result)


def _len_first_arg(result: Any, args: tuple) -> int:
    return len(args[0])


# ----------------------------------------------------------------- patches


def instrument_scheduler(tracer: Tracer, scheduler: Any) -> Any:
    """Trace ``core`` (ask/report) and ``searchers`` (suggest/observe).

    The span's value is the number of jobs handed out (ask) or results
    ingested (report), so calls, jobs per call and the useful-ask ratio all
    come from the same boundary.  With no searcher attached, proposals are
    ``SearchSpace.sample`` draws and that is what ``searchers.suggest``
    times.
    """
    tracer.patch(scheduler, "next_job", "core", "next_job", _job_or_none)
    tracer.patch(scheduler, "next_job_batch", "core", "next_job", _len_result)
    tracer.patch(scheduler, "report", "core", "report", _one)
    tracer.patch(scheduler, "report_batch", "core", "report", _len_first_arg)
    searcher = scheduler.searcher
    if searcher is None:
        tracer.patch(scheduler.space, "sample", "searchers", "suggest", _one)
    else:
        tracer.patch(searcher, "suggest", "searchers", "suggest", _one)
        tracer.patch(searcher, "on_result", "searchers", "observe")
        tracer.patch(searcher, "on_trial_complete", "searchers", "observe")
    return scheduler


def instrument_objective(tracer: Tracer, objective: Any) -> Any:
    """Trace ``objectives``: training draws, fresh states, and cost lookups."""
    tracer.patch(objective, "train", "objectives", "train", _one)
    tracer.patch(objective, "initial_state", "objectives", "init")
    tracer.patch(objective, "cost", "objectives", "cost")
    return objective


def instrument_loss(tracer: Tracer, loss_fn: Any) -> Any:
    """Trace the ask/tell client's synthetic loss draw as the objective it stands for."""
    return tracer.wrap(loss_fn, "objectives", "train", _one)


def instrument_journal_writer(tracer: Tracer, writer: Any) -> Any:
    """Trace the multiplexer's group-commit sweeps and its final commit."""
    tracer.patch(writer, "commit", "journal", "commit", _one)
    tracer.patch(writer, "finalize_all", "journal", "finalize")
    return writer


def _instrument_sink(tracer: Tracer, sink: Any) -> None:
    if isinstance(sink, MetricsCollector):
        name = "sink_metrics"
    elif isinstance(sink, JSONLSink):
        name = "sink_jsonl"
    elif isinstance(sink, TraceBuilder):
        name = "sink_trace"
        tracer.patch(sink, "build", "telemetry", "finalize")
    else:
        name = "sink_other"
    tracer.patch(sink, "write", "telemetry", name)


# -------------------------------------------------------------- subclasses


def traced_study(tracer: Tracer) -> type[Study]:
    return tracer.subclass(
        Study,
        "study",
        {
            "ask": ("ask", _job_or_none),
            "ask_batch": ("ask", _len_result),
            "tell": "tell",
            "tell_batch": "tell",
            "_restore": "resume_redrive",
        },
    )


def traced_journal(tracer: Tracer) -> type[Journal]:
    return tracer.subclass(
        Journal,
        "journal",
        {
            "append": ("append", _one),
            "append_batch": ("append", _len_first_arg),
            "commit": "commit",
            "_take_pending": "commit",
            "finalize": "finalize",
            "close": "finalize",
        },
    )


def traced_event_queue(tracer: Tracer) -> type[EventQueue]:
    return tracer.subclass(
        EventQueue,
        "events",
        {"push": "queue", "pop": "queue", "peek": "queue", "discard_next": "queue"},
    )


def traced_hub(tracer: Tracer) -> type[TelemetryHub]:
    """A hub timing ``emit`` and, separately, every sink it fans out to."""
    base = tracer.subclass(
        TelemetryHub,
        "telemetry",
        {"emit": ("emit", _one), "finalize": "finalize", "close": "finalize"},
    )

    class TracedHub(base):  # type: ignore[misc, valid-type]
        def __init__(self, sinks=(), **kwargs: Any) -> None:
            super().__init__(sinks, **kwargs)
            for sink in self.sinks:
                _instrument_sink(tracer, sink)

        def add_sink(self, sink: Any) -> None:
            _instrument_sink(tracer, sink)
            super().add_sink(sink)

    return TracedHub


class SpanExecutor(Executor):
    """Runs each submitted experiment trial inline, inside a span.

    ``run_methods(executor=...)`` submits one ``TrialTask`` at a time; the
    span is named after the task's method (``experiments.asha`` ...), which
    is how per-method seconds are read without touching the runner.
    """

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer

    def submit(self, fn, task) -> Future:  # type: ignore[override]
        future: Future = Future()
        with self.tracer.span("experiments", task.method.lower()):
            try:
                future.set_result(fn(task))
            except Exception as exc:  # noqa: BLE001 — delivered through the future
                future.set_exception(exc)
        return future


# ------------------------------------------------------------- simulation


def run_traced_simulation(
    tracer: Tracer,
    cluster: SimulatedCluster,
    runnable: Any,
    objective: Any,
    **run_kwargs: Any,
):
    """``SimulatedCluster.run`` spelled out so the event queue can be a proxy.

    ``cluster.run`` builds its ``EventQueue`` internally; ``SimRun`` +
    ``drive_runs`` are the public pieces it is made of and take the queue
    as an argument.  The body mirrors ``run`` step for step (including its
    scoped gc pause); the traced-equals-untraced check would catch a drift.
    """
    queue = traced_event_queue(tracer)()
    with tracer.span("simulation", "run"):
        run = SimRun(cluster, runnable, objective, queue=queue, **run_kwargs)
        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            gc.disable()
        try:
            drive_runs(queue, [run])
        finally:
            if gc_was_enabled:
                gc.enable()
            run.close()
        return run.finish()
