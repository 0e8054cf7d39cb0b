"""The benchmark's contract: workloads, metrics, bounds, and ``BENCHMARK.json``.

Everything a later PR is judged against is declared here once.  ``run.py``
reports exactly these names; ``manifest()`` renders them into the
``BENCHMARK.json`` shape the driver reads; ``README.md`` explains them.

Each per-layer metric names the end-to-end metric it should move and the
workload where that layer does most of its work (``moves`` / ``on``) — the
interaction table written down *before* anything is optimised.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "COMMAND",
    "END_TO_END",
    "PATHS",
    "PER_LAYER",
    "RUN_SECONDS",
    "WORKLOADS",
    "EndToEnd",
    "PerLayer",
    "manifest",
]

COMMAND = ["python3", "benchmarks/system/run.py"]
PATHS = ["benchmarks/system"]
#: Seconds one run measures: the slowest rounds (~3.3 s) still get four or
#: five tries at a quiet moment, and 4 + 22 x 6 runs of ~19 s fit the driver's
#: 3420-second budget with a quarter to spare.
RUN_SECONDS = 15

#: name -> why it exists (one line, <= 200 characters).
WORKLOADS: dict[str, str] = {
    "sim_asha_500w": (
        "Paper's Fig. 5 regime: bare ASHA on 500 simulated workers; objective draws, promotion "
        "scans, simulator and event queue; batched hub-less asks, no journal or telemetry."
    ),
    "sim_asha_500w_observed": (
        "The same seeded search with journal, telemetry hub, JSONL sink, trace and runtime "
        "probes on: one ask per worker; telemetry, canonical encoding and per-record flushes "
        "dominate."
    ),
    "fig4_methods_25w": (
        "run_methods over ASHA/PBT/SHA/BOHB at 25 workers plus aggregate_methods: the "
        "reproduction entry point, and the only workload where searchers/KDE and synchronous SHA "
        "do most of the work."
    ),
    "mux_durable_4k": (
        "StudyMultiplexer hosting 4000 journaled studies with a shared WAL: per-study "
        "construction, fair-share loop and group-commit fsyncs; scheduler and objective do almost "
        "nothing."
    ),
    "asktell_journal": (
        "One client, 64 jobs in flight, Study.ask/tell one at a time on an immediate-mode journal "
        "with a zero-cost loss: core + study + journal writes, no simulator and no objective."
    ),
    "journal_resume": (
        "Study.resume(mode='restore') of a 20k-tell journal onto a fresh scheduler: journal reads "
        "and scheduler re-drive beside the writes, with no simulator and no objective."
    ),
}


@dataclass(frozen=True)
class EndToEnd:
    name: str
    unit: str
    better: str
    #: Share of the parent's median by which the metric may worsen.
    bound: float
    what: str


END_TO_END: tuple[EndToEnd, ...] = (
    EndToEnd(
        "ops_per_s", "1/s", "higher", 0.25,
        "operations (jobs asked + results told; records restored for journal_resume) per second "
        "of the timed region, in the fastest round",
    ),
    EndToEnd(
        "setup_s", "s", "lower", 0.25,
        "import + one-time input generation + fastest per-round object construction, i.e. "
        "everything a user waits for before the timed region starts",
    ),
    EndToEnd(
        "peak_rss_mb", "MB", "lower", 0.10,
        "ru_maxrss of the single load-generating process after its first full round",
    ),
)


@dataclass(frozen=True)
class PerLayer:
    name: str
    unit: str
    better: str
    #: End-to-end metric this layer metric should move (None: benchmark health).
    moves: str | None
    #: Workload where the layer does most of its work.
    on: str | None
    what: str


def _share(layer: str, moves: str, on: str) -> PerLayer:
    return PerLayer(
        f"{layer}.share", "ratio", "lower", moves, on,
        f"self seconds of every {layer} span / traced wall",
    )


PER_LAYER: tuple[PerLayer, ...] = (
    # -- core: the scheduler's ask/report surface -------------------------
    PerLayer("core.next_job_s", "s", "lower", "ops_per_s", "asktell_journal",
             "self seconds in Scheduler.next_job / next_job_batch"),
    PerLayer("core.report_s", "s", "lower", "ops_per_s", "asktell_journal",
             "self seconds in Scheduler.report / report_batch"),
    PerLayer("core.calls", "count", "lower", "ops_per_s", "sim_asha_500w",
             "scheduler entry calls (asks + reports, batch or single)"),
    PerLayer("core.jobs_per_call", "ratio", "higher", "ops_per_s", "sim_asha_500w",
             "(jobs handed out + results ingested) / core.calls"),
    PerLayer("core.ask_useful_ratio", "ratio", "higher", "ops_per_s", "fig4_methods_25w",
             "asks that returned at least one job / asks"),
    _share("core", "ops_per_s", "asktell_journal"),
    # -- searchers: configuration proposal --------------------------------
    PerLayer("searchers.suggest_s", "s", "lower", "ops_per_s", "fig4_methods_25w",
             "self seconds in Searcher.suggest, else SearchSpace.sample"),
    PerLayer("searchers.observe_s", "s", "lower", "ops_per_s", "fig4_methods_25w",
             "self seconds in Searcher.on_result / on_trial_complete"),
    PerLayer("searchers.suggestions", "count", "lower", "ops_per_s", "fig4_methods_25w",
             "configurations proposed"),
    _share("searchers", "ops_per_s", "fig4_methods_25w"),
    # -- objectives: the surrogate draws ----------------------------------
    PerLayer("objectives.train_s", "s", "lower", "ops_per_s", "sim_asha_500w",
             "self seconds in Objective.train + initial_state"),
    PerLayer("objectives.cost_s", "s", "lower", "ops_per_s", "sim_asha_500w",
             "self seconds in Objective.cost (includes the first profile lookup)"),
    PerLayer("objectives.calls", "count", "lower", "ops_per_s", "sim_asha_500w",
             "Objective.train calls"),
    _share("objectives", "ops_per_s", "sim_asha_500w"),
    # -- events: the calendar queue ---------------------------------------
    PerLayer("events.queue_s", "s", "lower", "ops_per_s", "sim_asha_500w",
             "self seconds in EventQueue.push/pop/peek/discard_next (proxied queue only)"),
    PerLayer("events.ops", "count", "lower", "ops_per_s", "sim_asha_500w",
             "queue pushes + pops, from the runtime registry"),
    PerLayer("events.stale_discards", "count", "lower", "ops_per_s", "sim_asha_500w",
             "events pushed but never delivered (registry pushes - pops)"),
    _share("events", "ops_per_s", "sim_asha_500w"),
    # -- simulation: the event loop and its bookkeeping -------------------
    PerLayer("simulation.self_s", "s", "lower", "ops_per_s", "sim_asha_500w",
             "residual of SimRun + drive_runs: launch, fill, checkpoint store, physics draws"),
    PerLayer("simulation.events_delivered", "count", "lower", "ops_per_s", "sim_asha_500w",
             "events popped and dispatched, from the runtime registry"),
    PerLayer("simulation.best_loss", "loss", "lower", "ops_per_s", "sim_asha_500w",
             "best observed loss (mean over methods on fig4); repeats exactly per seed"),
    PerLayer("simulation.first_R_sim_time", "ratio", "lower", "ops_per_s", "sim_asha_500w",
             "simulated time of the first max-resource completion / time(R) (paper Fig. 8)"),
    _share("simulation", "ops_per_s", "sim_asha_500w"),
    # -- study: the ask/tell facade and resume ----------------------------
    PerLayer("study.ask_s", "s", "lower", "ops_per_s", "asktell_journal",
             "self seconds in Study.ask / ask_batch"),
    PerLayer("study.tell_s", "s", "lower", "ops_per_s", "asktell_journal",
             "self seconds in Study.tell / tell_batch"),
    PerLayer("study.ask_p50_us", "us", "lower", "ops_per_s", "asktell_journal",
             "median client-side Study.ask latency, untraced rounds pooled"),
    PerLayer("study.tell_p50_us", "us", "lower", "ops_per_s", "asktell_journal",
             "median client-side Study.tell latency, untraced rounds pooled"),
    PerLayer("study.ask_p99_us", "us", "lower", "ops_per_s", "asktell_journal",
             "p99 client-side Study.ask latency (swings about 13% run to run)"),
    PerLayer("study.tell_p99_us", "us", "lower", "ops_per_s", "asktell_journal",
             "p99 client-side Study.tell latency (swings about 13% run to run)"),
    PerLayer("study.latency_samples", "count", "higher", "ops_per_s", "asktell_journal",
             "ask + tell latency samples behind the percentiles"),
    PerLayer("study.resume_read_s", "s", "lower", "ops_per_s", "journal_resume",
             "self seconds of Study.resume outside the re-drive: two journal reads, heal, open"),
    PerLayer("study.resume_redrive_s", "s", "lower", "ops_per_s", "journal_resume",
             "self seconds re-driving the scheduler through the records (Study._restore)"),
    PerLayer("study.replay_records_per_s", "1/s", "higher", "ops_per_s", "journal_resume",
             "records verified per second by a replay-mode resume (traced pass only)"),
    _share("study", "ops_per_s", "asktell_journal"),
    # -- journal: the write-ahead log -------------------------------------
    PerLayer("journal.append_s", "s", "lower", "ops_per_s", "asktell_journal",
             "self seconds in Journal.append / append_batch (encode + write + flush)"),
    PerLayer("journal.appends", "count", "lower", "ops_per_s", "asktell_journal",
             "append calls"),
    PerLayer("journal.records_per_append", "ratio", "higher", "ops_per_s", "mux_durable_4k",
             "records written / append calls"),
    PerLayer("journal.bytes", "bytes", "lower", "ops_per_s", "asktell_journal",
             "journal bytes on disk at the end of the round"),
    PerLayer("journal.bytes_per_op", "bytes", "lower", "ops_per_s", "asktell_journal",
             "journal.bytes / ops; repeats exactly per seed"),
    PerLayer("journal.commit_s", "s", "lower", "ops_per_s", "mux_durable_4k",
             "self seconds in group-commit sweeps (includes the WAL fsyncs)"),
    PerLayer("journal.commits", "count", "lower", "ops_per_s", "mux_durable_4k",
             "JournalWriter.commit sweeps"),
    PerLayer("journal.fsync_s", "s", "lower", "ops_per_s", "mux_durable_4k",
             "seconds inside os.fsync, from the runtime registry (a part of commit_s/finalize_s)"),
    PerLayer("journal.fsyncs", "count", "lower", "ops_per_s", "mux_durable_4k",
             "fsync calls, from the runtime registry"),
    PerLayer("journal.finalize_s", "s", "lower", "ops_per_s", "mux_durable_4k",
             "self seconds in Journal.finalize/close and JournalWriter.finalize_all"),
    PerLayer("journal.read_s", "s", "lower", "ops_per_s", "journal_resume",
             "seconds for one read_journal pass over what the round wrote (offline)"),
    _share("journal", "ops_per_s", "mux_durable_4k"),
    # -- canonical: the JSON encoder under journal and JSONL sink ---------
    PerLayer("canonical.encode_s", "s", "lower", "ops_per_s", "asktell_journal",
             "seconds to re-encode the records the round wrote (offline)"),
    PerLayer("canonical.bytes_per_s", "B/s", "higher", "ops_per_s", "asktell_journal",
             "bytes produced / canonical.encode_s"),
    PerLayer("canonical.share", "ratio", "lower", "ops_per_s", "asktell_journal",
             "canonical.encode_s / traced wall (an estimate; nested in journal.append_s)"),
    # -- multiplex: the shared-clock service loop -------------------------
    PerLayer("multiplex.construct_s", "s", "lower", "setup_s", "mux_durable_4k",
             "self seconds building the multiplexer, its studies and runs"),
    PerLayer("multiplex.self_s", "s", "lower", "ops_per_s", "mux_durable_4k",
             "residual of StudyMultiplexer.run: shared loop, fair-share ring, SimRun bookkeeping"),
    PerLayer("multiplex.ticks", "count", "lower", "ops_per_s", "mux_durable_4k",
             "shared-clock ticks (events delivered across all studies)"),
    _share("multiplex", "ops_per_s", "mux_durable_4k"),
    # -- telemetry: hub, sinks, probes -------------------------------------
    PerLayer("telemetry.emit_s", "s", "lower", "ops_per_s", "sim_asha_500w_observed",
             "self seconds in TelemetryHub.emit (event construction, lock, fan-out)"),
    PerLayer("telemetry.events", "count", "lower", "ops_per_s", "sim_asha_500w_observed",
             "events emitted; exactly 0 on every other workload"),
    PerLayer("telemetry.sink_metrics_s", "s", "lower", "ops_per_s", "sim_asha_500w_observed",
             "self seconds in MetricsCollector.write"),
    PerLayer("telemetry.sink_jsonl_s", "s", "lower", "ops_per_s", "sim_asha_500w_observed",
             "self seconds in JSONLSink.write"),
    PerLayer("telemetry.sink_trace_s", "s", "lower", "ops_per_s", "sim_asha_500w_observed",
             "self seconds in TraceBuilder.write"),
    PerLayer("telemetry.finalize_s", "s", "lower", "ops_per_s", "sim_asha_500w_observed",
             "self seconds in hub finalize/close and TraceBuilder.build"),
    PerLayer("telemetry.probe_samples", "count", "lower", "ops_per_s", "sim_asha_500w_observed",
             "runtime-registry updates (counter increments + histogram observations)"),
    _share("telemetry", "ops_per_s", "sim_asha_500w_observed"),
    # -- experiments / analysis: the reproduction entry point -------------
    PerLayer("experiments.asha_s", "s", "lower", "ops_per_s", "fig4_methods_25w",
             "self seconds of the ASHA trial (its simulator residual included)"),
    PerLayer("experiments.sha_s", "s", "lower", "ops_per_s", "fig4_methods_25w",
             "self seconds of the synchronous SHA trial"),
    PerLayer("experiments.bohb_s", "s", "lower", "ops_per_s", "fig4_methods_25w",
             "self seconds of the BOHB trial"),
    PerLayer("experiments.pbt_s", "s", "lower", "ops_per_s", "fig4_methods_25w",
             "self seconds of the PBT trial"),
    _share("experiments", "ops_per_s", "fig4_methods_25w"),
    PerLayer("analysis.aggregate_s", "s", "lower", "ops_per_s", "fig4_methods_25w",
             "self seconds in aggregate_methods"),
    _share("analysis", "ops_per_s", "fig4_methods_25w"),
    # -- the benchmark's own health ---------------------------------------
    PerLayer("bench.trace_overhead_x", "x", "lower", None, None,
             "traced round wall / fastest untraced round wall"),
    PerLayer("bench.unattributed_share", "ratio", "lower", None, None,
             "traced wall spent outside every named layer (the benchmark's own client code)"),
)


def manifest() -> dict:
    """``BENCHMARK.json`` in exactly the shape the driver reads."""
    return {
        "command": list(COMMAND),
        "paths": list(PATHS),
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why} for name, why in WORKLOADS.items()],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [{"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER],
    }
