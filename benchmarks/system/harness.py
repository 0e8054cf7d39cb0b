"""The run protocol: warm-up, timed rounds, the traced round, metric derivation.

One call to :func:`run_workload` is one benchmark run: a single process,
single-threaded, executing identical seeded rounds of one workload for about
``--seconds`` seconds.

* a 1/8-scale warm-up round first (imports settled, caches filled, lazy
  paths taken) — nothing from it is reported;
* then untraced rounds until the time is up (at least two); every timing
  metric comes from the **fastest round** (see ``_end_to_end``), with the
  median, quartiles and round count kept in ``meta``;
* with ``--trace 1``, the untraced rounds stop at 40% of the time and one
  more round runs with the proxies in place and the runtime registry
  installed.  End-to-end metrics never come from the traced round; it must
  reproduce the untraced rounds' statistics and journal bytes exactly, or
  the run fails.
"""

from __future__ import annotations

import gc
import os
import resource
import shutil
import statistics
import sys
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any

from repro.canonical import encode_canonical
from repro.study.journal import read_journal
from repro.telemetry.runtime import install_runtime_registry, uninstall_runtime_registry

from schema import END_TO_END, PER_LAYER
from spans import KindStats, Tracer
from workloads import Ctx, Outcome, Workload

__all__ = ["Report", "Round", "run_workload"]

#: Share of ``--seconds`` the untraced rounds of a ``--trace 1`` run may use.
TRACED_RUN_UNTRACED_SHARE = 0.4
MIN_ROUNDS = 2


@dataclass
class Round:
    build_s: float
    run_s: float
    outcome: Outcome
    problems: list[str]
    #: Runtime-registry snapshot (only when a registry was installed).
    registry: dict[str, Any] | None = None


@dataclass
class Report:
    """Everything one run measured; ``result`` is the line the driver reads."""

    correct: bool
    attempted: int
    failed: int
    metrics: dict[str, dict[str, Any]]
    #: Round count, quartiles and extremes behind each median (suite mode).
    meta: dict[str, Any] = field(default_factory=dict)

    @property
    def result(self) -> dict[str, Any]:
        return {
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": self.metrics,
        }


def _one_round(workload: Workload, ctx: Ctx, tracer: Tracer | None) -> Round:
    """Build, run and verify once.  Only ``build`` and ``run`` are timed."""
    gc.collect()
    ctx.new_round_dir()
    registry = None
    if tracer is not None or workload.uses_registry:
        registry = install_runtime_registry()
    try:
        started = perf_counter()
        state = workload.build(ctx, tracer)
        built = perf_counter()
        if tracer is None:
            outcome = workload.run(ctx, state, None)
        else:
            with tracer.span("bench", "round"):
                outcome = workload.run(ctx, state, tracer)
        finished = perf_counter()
        # Scrape while the round's objects are alive: occupancy gauges come
        # from weakref collectors.
        snapshot = registry.snapshot() if registry is not None else None
    finally:
        if registry is not None:
            uninstall_runtime_registry()
    problems = workload.verify(ctx, state, outcome)
    run_s = outcome.seconds if outcome.seconds is not None else finished - built
    return Round(built - started, run_s, outcome, problems, snapshot)


def _quartiles(values: list[float]) -> dict[str, float]:
    # ``--rounds 1`` leaves a single value; quantiles needs two.
    q1, q2, q3 = statistics.quantiles(values if len(values) > 1 else values * 2, n=4)
    return {"min": min(values), "q1": q1, "median": q2, "q3": q3, "max": max(values),
            "rounds": len(values)}


def _percentile(ordered: list[float], q: float) -> float:
    return ordered[min(int(q * len(ordered)), len(ordered) - 1)] if ordered else 0.0


def run_workload(
    workload: Workload,
    *,
    seed: int,
    seconds: float,
    trace: bool,
    scale: float,
    workdir: str,
    import_s: float,
    rounds: int | None = None,
    trace_path: str | None = None,
) -> Report:
    """One benchmark run of ``workload``; see the module docstring."""
    os.makedirs(workdir, exist_ok=True)
    problems: list[str] = []
    try:
        warm = Ctx(seed, scale / 8.0, os.path.join(workdir, "warmup"))
        os.makedirs(warm.workdir, exist_ok=True)
        workload.prepare(warm)
        warm.oracle = workload.make_oracle(warm)
        problems += [f"warm-up: {p}" for p in _one_round(workload, warm, None).problems]
        shutil.rmtree(warm.workdir, ignore_errors=True)

        ctx = Ctx(seed, scale, workdir)
        started = perf_counter()
        workload.prepare(ctx)
        prepare_s = perf_counter() - started
        ctx.oracle = workload.make_oracle(ctx)

        budget = seconds * (TRACED_RUN_UNTRACED_SHARE if trace else 1.0)
        done: list[Round] = []
        peak_rss_mb = 0.0
        started = perf_counter()
        while True:
            done.append(_one_round(workload, ctx, None))
            if len(done) == 1:
                # The high-water mark after one full round: what one search
                # costs.  Later rounds can only add what the process fails to
                # give back, and how many there are depends on machine speed.
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            if rounds is not None:
                if len(done) >= rounds:
                    break
                continue
            elapsed = perf_counter() - started
            # Stop when the next round would overshoot the budget by more
            # than it undershoots now: the window is centred on --seconds.
            if len(done) >= MIN_ROUNDS and elapsed + 0.5 * elapsed / len(done) >= budget:
                break

        checked = [(f"round {index}", rnd) for index, rnd in enumerate(done)]
        if not trace:
            metrics, meta = _end_to_end(done, import_s, prepare_s, peak_rss_mb)
        else:
            tracer = Tracer()
            traced = _one_round(workload, ctx, tracer)
            checked.append(("traced round", traced))
            metrics, meta = _per_layer(workload, ctx, tracer, traced, done)
            if trace_path is not None:
                tracer.write_jsonl(trace_path)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    # Every round — traced or not — is the same seeded work: it must pass its
    # own check and reproduce round 0's statistics, or all its ops are failed.
    attempted = failed = 0
    for label, rnd in checked:
        issues = list(rnd.problems)
        if rnd.outcome.stats != done[0].outcome.stats:
            issues.append("statistics differ from round 0 of the same seed")
        problems += [f"{label}: {issue}" for issue in issues]
        attempted += rnd.outcome.ops
        failed += rnd.outcome.ops if issues else rnd.outcome.failed
    for problem in problems:
        print(f"{workload.name}: {problem}", file=sys.stderr)
    return Report(
        correct=not problems and failed == 0,
        attempted=attempted,
        failed=failed,
        metrics=metrics,
        meta=meta,
    )


# ------------------------------------------------------------- end to end


def _end_to_end(done: list[Round], import_s: float, prepare_s: float, peak_rss_mb: float):
    rates = [r.outcome.ops / r.run_s for r in done]
    builds = [r.build_s for r in done]
    # Rounds are identical seeded work, so whatever separates them is the
    # machine, and on shared cores that noise only ever slows a round down:
    # the fastest round is the estimate of the program's own speed.
    values = {
        "ops_per_s": max(rates),
        "setup_s": import_s + prepare_s + min(builds),
        "peak_rss_mb": peak_rss_mb,
    }
    metrics = {m.name: {"value": values[m.name], "unit": m.unit} for m in END_TO_END}
    meta = {
        "ops_per_s": _quartiles(rates),
        "build_s": _quartiles(builds),
        "import_s": import_s,
        "prepare_s": prepare_s,
        "ops_per_round": done[0].outcome.ops,
        "ops_per_s_by_round": rates,
    }
    return metrics, meta


# -------------------------------------------------------------- per layer

_ZERO = KindStats()


def _registry_totals(snapshot: dict[str, Any] | None) -> dict[str, float]:
    if snapshot is None:
        return {"pushes": 0, "pops": 0, "fsync_s": 0.0, "fsyncs": 0, "probe_samples": 0}
    counters = snapshot["counters"]
    histograms = snapshot["histograms"]
    fsync_s = sum(
        h.get("sum", 0.0)
        for key, h in histograms.items()
        if key.startswith("journal_fsync_seconds")
    )
    fsyncs = sum(v for key, v in counters.items() if key.startswith("journal_fsync_total"))
    # Byte counters advance by payload size, not by one per update.
    updates = sum(v for key, v in counters.items() if not key.startswith("journal_bytes_total"))
    updates += sum(h.get("count", 0) for h in histograms.values())
    return {
        "pushes": counters.get("event_queue_pushes_total", 0),
        "pops": counters.get("event_queue_pops_total", 0),
        "fsync_s": fsync_s,
        "fsyncs": fsyncs,
        "probe_samples": updates,
    }


def _offline_journal_pass(paths: list[str]) -> tuple[float, float, int]:
    """(read seconds, canonical encode seconds, encoded bytes) over ``paths``."""
    started = perf_counter()
    records = [record for path in paths for record in read_journal(path)[0]]
    read_s = perf_counter() - started
    started = perf_counter()
    size = 0
    for record in records:
        size += len(encode_canonical(record))
    return read_s, perf_counter() - started, size


def _per_layer(
    workload: Workload, ctx: Ctx, tracer: Tracer, traced: Round, untraced: list[Round]
):
    root = tracer.kind.index(tracer.kind_id("bench", "round"))
    build = tracer.summarize(0, root)
    run = tracer.summarize(root, len(tracer))
    wall = tracer.end[root] - tracer.start[root]
    registry = _registry_totals(traced.registry)
    outcome = traced.outcome
    stats = outcome.stats

    def self_s(layer: str, *names: str) -> float:
        return sum(run.get((layer, name), _ZERO).self_s for name in names)

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    asks = run.get(("core", "next_job"), _ZERO)
    reports = run.get(("core", "report"), _ZERO)
    appends = run.get(("journal", "append"), _ZERO)
    journal_bytes = stats.get("journal_bytes", 0)
    values: dict[str, float] = {
        "core.next_job_s": asks.self_s,
        "core.report_s": reports.self_s,
        "core.calls": asks.entry_calls + reports.entry_calls,
        "core.jobs_per_call": ratio(
            asks.entry_value + reports.entry_value, asks.entry_calls + reports.entry_calls
        ),
        "core.ask_useful_ratio": ratio(asks.entry_useful, asks.entry_calls),
        "searchers.suggest_s": self_s("searchers", "suggest"),
        "searchers.observe_s": self_s("searchers", "observe"),
        "searchers.suggestions": run.get(("searchers", "suggest"), _ZERO).calls,
        "objectives.train_s": self_s("objectives", "train", "init"),
        "objectives.cost_s": self_s("objectives", "cost"),
        "objectives.calls": run.get(("objectives", "train"), _ZERO).calls,
        "events.queue_s": self_s("events", "queue"),
        "events.ops": registry["pushes"] + registry["pops"],
        "events.stale_discards": registry["pushes"] - registry["pops"],
        "simulation.self_s": self_s("simulation", "run"),
        "simulation.events_delivered": registry["pops"],
        "simulation.best_loss": stats.get("best_loss") or 0.0,
        "simulation.first_R_sim_time": stats.get("first_R_sim_time") or 0.0,
        "study.ask_s": self_s("study", "ask"),
        "study.tell_s": self_s("study", "tell"),
        "study.resume_read_s": self_s("study", "resume_read"),
        "study.resume_redrive_s": self_s("study", "resume_redrive"),
        "journal.append_s": appends.self_s,
        "journal.appends": appends.calls,
        "journal.records_per_append": ratio(appends.value, appends.calls),
        "journal.bytes": journal_bytes,
        "journal.bytes_per_op": ratio(journal_bytes, outcome.ops),
        "journal.commit_s": self_s("journal", "commit"),
        "journal.commits": run.get(("journal", "commit"), _ZERO).value,
        "journal.fsync_s": registry["fsync_s"],
        "journal.fsyncs": registry["fsyncs"],
        "journal.finalize_s": self_s("journal", "finalize"),
        "multiplex.construct_s": build.get(("multiplex", "construct"), _ZERO).self_s,
        "multiplex.self_s": self_s("multiplex", "self"),
        "multiplex.ticks": stats.get("ticks", 0),
        "telemetry.emit_s": self_s("telemetry", "emit"),
        "telemetry.events": run.get(("telemetry", "emit"), _ZERO).calls,
        "telemetry.sink_metrics_s": self_s("telemetry", "sink_metrics"),
        "telemetry.sink_jsonl_s": self_s("telemetry", "sink_jsonl"),
        "telemetry.sink_trace_s": self_s("telemetry", "sink_trace"),
        "telemetry.finalize_s": self_s("telemetry", "finalize"),
        "telemetry.probe_samples": registry["probe_samples"],
        "analysis.aggregate_s": self_s("analysis", "aggregate"),
    }
    for method in ("asha", "sha", "bohb", "pbt"):
        values[f"experiments.{method}_s"] = self_s("experiments", method)

    layer_self: dict[str, float] = {}
    for (layer, _), kind in run.items():
        layer_self[layer] = layer_self.get(layer, 0.0) + kind.self_s
    for layer, seconds in layer_self.items():
        if layer != "bench":
            values[f"{layer}.share"] = ratio(seconds, wall)
    values["bench.unattributed_share"] = ratio(layer_self.get("bench", 0.0), wall)
    values["bench.trace_overhead_x"] = ratio(traced.run_s, min(r.run_s for r in untraced))

    if outcome.journals:
        read_s, encode_s, size = _offline_journal_pass(outcome.journals)
        values["journal.read_s"] = read_s
        values["canonical.encode_s"] = encode_s
        values["canonical.bytes_per_s"] = ratio(size, encode_s)
        values["canonical.share"] = ratio(encode_s, wall)

    ask_latency = sorted(t for r in untraced for t in r.outcome.extras.get("ask_latency", ()))
    tell_latency = sorted(t for r in untraced for t in r.outcome.extras.get("tell_latency", ()))
    values["study.ask_p50_us"] = 1e6 * _percentile(ask_latency, 0.50)
    values["study.ask_p99_us"] = 1e6 * _percentile(ask_latency, 0.99)
    values["study.tell_p50_us"] = 1e6 * _percentile(tell_latency, 0.50)
    values["study.tell_p99_us"] = 1e6 * _percentile(tell_latency, 0.99)
    values["study.latency_samples"] = len(ask_latency) + len(tell_latency)

    values.update(workload.traced_extras(ctx))

    metrics = {
        m.name: {"value": values.get(m.name, 0), "unit": m.unit} for m in PER_LAYER
    }
    meta = {
        "spans": len(tracer),
        "traced_wall_s": wall,
        "traced_run_s": traced.run_s,
        "untraced_run_s": _quartiles([r.run_s for r in untraced]),
    }
    return metrics, meta
