"""Trace reconstruction: hand-traced spans, critical paths, Chrome export.

The centrepiece is a fully hand-traced tiny ASHA run **with one retry**:
one worker, scripted qualities ``0.1 < 0.2 < 0.3 < 0.4`` (loss == quality,
cost == resource delta), ``eta=2, r=1, R=4, max_trials=4``, and the
``0.2`` config crashing on its first training call under
``RetryPolicy(max_attempts=3, backoff=1.0)``.  The timeline::

    t=0  T0 sampled, job0 dispatched (rung 0)
    t=1  report T0=0.1; T1 sampled, job1 dispatched
    t=2  job1 crashes (exception); retry scheduled for t=3; T2 dispatched
    t=3  report T2=0.3; job1 attempt 2 dispatched
    t=4  report T1=0.2; promote T0 -> rung 1; job3 dispatched
    t=5  restore+report T0 at rung 1; T3 dispatched
    t=6  report T3=0.4; promote T1 -> rung 1; job5 dispatched
    t=7  restore+report T1 at rung 1; promote T0 -> rung 2; job6 dispatched
    t=9  restore+report T0 at rung 2 (top rung); done, elapsed 9

So trial 1's end-to-end latency (1 -> 7) decomposes exactly into
``failure_lost`` [1,2], ``retry_backoff`` [2,3], ``compute`` [3,4],
``queue_wait`` [4,6], ``compute`` [6,7].
"""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

from repro.backend import RetryPolicy, SimulatedCluster
from repro.backend.faults import FailureInjectingObjective
from repro.core.asha import ASHA
from repro.experiments.runner import run_trials, telemetry_event_path
from repro.experiments.toys import scripted_sampler, toy_objective, toy_space
from repro.searchers import FunctionSearcher
from repro.telemetry import (
    JSONLSink,
    MetricsReport,
    TelemetryHub,
    Trace,
    TraceBuilder,
    validate_chrome_trace,
)
from repro.telemetry.runtime import main as trace_cli
from repro.tune import tune


def _tiny_retry_run(sink=None):
    """The hand-traced run from the module docstring."""
    scheduler = ASHA(
        toy_space(),
        np.random.default_rng(0),
        min_resource=1,
        max_resource=4,
        eta=2,
        max_trials=4,
        searcher=FunctionSearcher(scripted_sampler([0.1, 0.2, 0.3, 0.4])),
    )
    objective = FailureInjectingObjective(
        toy_objective(max_resource=4.0),
        crash_first=1,
        target=lambda c: c["quality"] == 0.2,
        seed=0,
    )
    hub = TelemetryHub.with_metrics(*([sink] if sink is not None else []))
    result = SimulatedCluster(1, seed=0).run(
        scheduler,
        objective,
        time_limit=100.0,
        telemetry=hub,
        retry_policy=RetryPolicy(max_attempts=3, backoff=1.0),
        trace=True,
    )
    return result


class TestHandTracedSpanTree:
    def setup_method(self):
        self.result = _tiny_retry_run()
        self.trace = self.result.trace

    def test_trace_is_attached_and_complete(self):
        assert isinstance(self.trace, Trace)
        assert self.result.elapsed == 9.0
        assert self.trace.elapsed == 9.0
        assert self.trace.num_workers == 1
        assert sorted(self.trace.trials) == [0, 1, 2, 3]

    def test_trial0_spans(self):
        t0 = self.trace.trials[0]
        assert t0.sampled_at == 0.0
        assert t0.config == {"quality": 0.1}
        assert [
            (a.job_id, a.attempt, a.start, a.end, a.outcome, a.rung)
            for a in t0.attempts
        ] == [
            (0, 1, 0.0, 1.0, "completed", 0),
            (3, 1, 4.0, 5.0, "completed", 1),
            (6, 1, 7.0, 9.0, "completed", 2),
        ]
        assert t0.promotions == [(4.0, 0, 1), (7.0, 1, 2)]
        assert t0.backoffs == []
        assert t0.checkpoint_restores == 2
        assert t0.best_loss() == 0.1

    def test_trial1_spans_carry_the_retry(self):
        t1 = self.trace.trials[1]
        assert t1.sampled_at == 1.0
        assert [
            (a.job_id, a.attempt, a.start, a.end, a.outcome) for a in t1.attempts
        ] == [
            (1, 1, 1.0, 2.0, "exception"),
            (1, 2, 3.0, 4.0, "completed"),
            (5, 1, 6.0, 7.0, "completed"),
        ]
        assert t1.attempts[0].error is not None
        assert "InjectedFailure" in t1.attempts[0].error
        assert t1.backoffs == [(2.0, 3.0)]
        assert t1.promotions == [(6.0, 0, 1)]

    def test_rung_residency(self):
        assert self.trace.trials[0].rung_residency() == [
            (0, 0.0, 4.0),
            (1, 4.0, 7.0),
            (2, 7.0, 9.0),
        ]

    def test_retried_trial_critical_path_is_the_docstring_decomposition(self):
        path = self.trace.critical_path(1)
        assert (path.start, path.end) == (1.0, 7.0)
        assert [(s.kind, s.start, s.end) for s in path.segments] == [
            ("failure_lost", 1.0, 2.0),
            ("retry_backoff", 2.0, 3.0),
            ("compute", 3.0, 4.0),
            ("queue_wait", 4.0, 6.0),
            ("compute", 6.0, 7.0),
        ]
        assert path.breakdown() == {
            "compute": 2.0,
            "queue_wait": 2.0,
            "retry_backoff": 1.0,
            "straggler_delay": 0.0,
            "failure_lost": 1.0,
        }

    def test_incumbent_critical_path_partitions_latency(self):
        assert self.trace.incumbent() == 0
        path = self.trace.critical_path()
        assert path.trial_id == 0
        assert (path.start, path.end) == (0.0, 9.0)
        # Segments are contiguous: each begins where the previous ended.
        edges = [path.start] + [s.end for s in path.segments]
        assert [s.start for s in path.segments] == edges[:-1]
        assert math.fsum(s.duration for s in path.segments) == path.total_latency

    def test_saturated_worker_timeline(self):
        worker = self.trace.workers[0]
        assert worker.busy_time == 9.0
        assert worker.idle_time == 0.0
        assert worker.utilization() == 1.0
        assert worker.idle_gaps() == []

    def test_worker_busy_time_matches_metrics_report(self):
        report = self.result.telemetry
        assert isinstance(report, MetricsReport)
        for worker_id, timeline in self.trace.workers.items():
            expected = report.worker_utilization[worker_id] * self.trace.elapsed
            assert timeline.busy_time == pytest.approx(expected, abs=1e-9)


class TestChromeTraceExport:
    def setup_method(self):
        self.trace = _tiny_retry_run().trace
        self.chrome = self.trace.to_chrome_trace()

    def test_schema_is_clean(self):
        assert validate_chrome_trace(self.chrome) == []

    def test_shape(self):
        events = self.chrome["traceEvents"]
        by_phase: dict[str, int] = {}
        for e in events:
            by_phase[e["ph"]] = by_phase.get(e["ph"], 0) + 1
        # 2 process names + worker 0's thread name and sort index.
        assert by_phase["M"] == 4
        # Every ended attempt is a complete event: 3 + 3 + 1 + 1.
        assert by_phase["X"] == 8
        # One crash instant + three promotion instants.
        assert by_phase["i"] == 4

    def test_time_mapping_is_one_unit_to_one_millisecond(self):
        spans = [e for e in self.chrome["traceEvents"] if e["ph"] == "X"]
        first = min(spans, key=lambda e: (e["ts"], e["args"]["job_id"]))
        assert first["args"] == {
            "trial_id": 0, "job_id": 0, "attempt": 1,
            "outcome": "completed", "loss": 0.1, "resource": 1,
        }
        assert first["ts"] == 0.0
        assert first["dur"] == 1000.0  # 1 sim unit == 1 ms == 1000 us

    def test_failures_and_promotions_are_instants(self):
        instants = [e for e in self.chrome["traceEvents"] if e["ph"] == "i"]
        names = sorted(e["name"] for e in instants)
        assert names == [
            "exception: trial 1",
            "promote trial 0 -> rung 1",
            "promote trial 0 -> rung 2",
            "promote trial 1 -> rung 1",
        ]
        # Faults render on the worker row, promotions on the scheduler row.
        assert {e["pid"] for e in instants if e["cat"] == "fault"} == {0}
        assert {e["pid"] for e in instants if e["cat"] == "promotion"} == {1}


class TestByteStability:
    def _events_file(self, tmp_path):
        path = tmp_path / "events.jsonl"
        _tiny_retry_run(sink=JSONLSink(path))
        return path

    def test_two_builds_from_one_jsonl_are_byte_identical(self, tmp_path):
        path = self._events_file(tmp_path)
        first = TraceBuilder.from_jsonl(path).build().chrome_trace_json()
        second = TraceBuilder.from_jsonl(path).build().chrome_trace_json()
        assert first == second
        assert validate_chrome_trace(json.loads(first)) == []

    def test_offline_replay_matches_the_live_trace(self, tmp_path):
        path = self._events_file(tmp_path)
        live = _tiny_retry_run().trace
        replayed = TraceBuilder.from_jsonl(path).build()
        assert replayed.chrome_trace_json() == live.chrome_trace_json()
        assert sorted(replayed.trials) == sorted(live.trials)
        for trial_id, trial in live.trials.items():
            other = replayed.trials[trial_id]
            assert other.backoffs == trial.backoffs
            assert other.promotions == trial.promotions
            assert [
                (a.start, a.end, a.outcome) for a in other.attempts
            ] == [(a.start, a.end, a.outcome) for a in trial.attempts]


def _faulty_cluster_run(trace=True):
    """A seeded fault-injected ASHA run at small-cluster scale."""
    scheduler = ASHA(
        toy_space(),
        np.random.default_rng(3),
        min_resource=1,
        max_resource=9,
        eta=3,
        max_trials=30,
    )
    objective = FailureInjectingObjective(
        toy_objective(max_resource=9.0), crash_probability=0.15, seed=21
    )
    hub = TelemetryHub.with_metrics()
    cluster = SimulatedCluster(4, straggler_std=0.3, seed=7)
    return cluster.run(
        scheduler,
        objective,
        time_limit=60.0,
        telemetry=hub,
        retry_policy=RetryPolicy(max_attempts=3, backoff=1.0),
        trace=trace,
    )


class TestFaultInjectedClusterRun:
    """The acceptance invariants on a messier (straggler + crash) run."""

    def setup_method(self):
        self.result = _faulty_cluster_run()
        self.trace = self.result.trace

    def test_run_really_exercised_the_fault_path(self):
        assert self.result.failures
        assert self.result.jobs_retried > 0

    def test_critical_path_segments_sum_to_latency_exactly(self):
        for trial_id in self.trace.trials:
            path = self.trace.critical_path(trial_id)
            assert math.fsum(s.duration for s in path.segments) == path.total_latency
            edges = [path.start] + [s.end for s in path.segments]
            assert [s.start for s in path.segments] == edges[:-1]

    def test_per_worker_busy_time_is_consistent_with_metrics(self):
        report = self.result.telemetry
        for worker_id, timeline in self.trace.workers.items():
            expected = report.worker_utilization[worker_id] * self.trace.elapsed
            assert timeline.busy_time == pytest.approx(expected, abs=1e-6)

    def test_chrome_trace_has_zero_schema_violations(self):
        assert validate_chrome_trace(self.trace.to_chrome_trace()) == []

    def test_utilization_report_accounts_busy_plus_idle(self):
        util = self.trace.utilization_report()
        assert util["num_workers"] == 4
        total_span = sum(t.span for t in self.trace.workers.values())
        assert util["busy_time"] + util["idle_time"] == pytest.approx(total_span)
        assert 0.0 < util["cluster_utilization"] <= 1.0

    def test_straggler_report_covers_active_workers(self):
        stats = self.trace.straggler_report()
        assert stats
        assert all(s.slowdown > 0 for s in stats)
        slowdowns = [s.slowdown for s in stats]
        assert slowdowns == sorted(slowdowns, reverse=True)

    def test_trace_off_by_default(self):
        assert _faulty_cluster_run(trace=False).trace is None

    def test_render_report_mentions_every_attribution_kind(self):
        text = self.trace.render_report()
        for kind in ("compute", "queue_wait", "retry_backoff", "straggler_delay"):
            assert kind in text
        assert "utilisation" in text


class TestStragglerAttribution:
    def test_slow_worker_has_proportional_slowdown(self):
        """Synthetic stream: worker 1 trains at half the rate of worker 0."""
        from repro.telemetry.events import EventKind, TelemetryEvent

        events = []
        seq = 0

        def emit(kind, time, **kwargs):
            nonlocal seq
            data = {
                k: v
                for k, v in kwargs.items()
                if k not in ("trial_id", "job_id", "worker_id", "rung", "bracket")
            }
            events.append(
                TelemetryEvent(
                    seq=seq,
                    kind=EventKind(kind),
                    time=time,
                    wall_time=0.0,
                    trial_id=kwargs.get("trial_id"),
                    job_id=kwargs.get("job_id"),
                    worker_id=kwargs.get("worker_id"),
                    rung=kwargs.get("rung"),
                    data=data,
                )
            )
            seq += 1

        for trial_id, (worker, rate) in enumerate([(0, 1.0), (1, 2.0)]):
            start = 0.0
            emit("trial_started", start, trial_id=trial_id)
            emit(
                "job_started", start, trial_id=trial_id, job_id=trial_id,
                worker_id=worker, rung=0, resource=4.0, checkpoint_resource=0.0,
            )
            emit(
                "report", start + 4.0 * rate, trial_id=trial_id, job_id=trial_id,
                worker_id=worker, rung=0, loss=0.5, resource=4.0,
            )
        builder = TraceBuilder.from_events(events)
        builder.finalize(elapsed=8.0, num_workers=2)
        stats = {s.worker_id: s for s in builder.build().straggler_report()}
        assert stats[1].slowdown == pytest.approx(2.0 * stats[0].slowdown)
        assert stats[0].mean_rate == pytest.approx(1.0)
        assert stats[1].mean_rate == pytest.approx(2.0)


class TestValidator:
    def test_rejects_non_list(self):
        assert validate_chrome_trace({}) == ["traceEvents is missing or not a list"]

    def test_flags_unknown_phase_and_missing_fields(self):
        bad = {"traceEvents": [{"ph": "Z"}, {"ph": "X", "ts": 0, "dur": 1}]}
        violations = validate_chrome_trace(bad)
        assert any("unknown phase" in v for v in violations)
        assert any("missing name" in v for v in violations)

    def test_flags_out_of_order_ts(self):
        bad = {
            "traceEvents": [
                {"ph": "i", "s": "t", "name": "a", "pid": 0, "tid": 0, "ts": 5},
                {"ph": "i", "s": "t", "name": "b", "pid": 0, "tid": 0, "ts": 1},
            ]
        }
        assert any("out of order" in v for v in validate_chrome_trace(bad))

    def test_flags_unbalanced_begin_end(self):
        bad = {
            "traceEvents": [
                {"ph": "B", "name": "a", "pid": 0, "tid": 0, "ts": 0},
                {"ph": "E", "name": "a", "pid": 0, "tid": 1, "ts": 1},
            ]
        }
        violations = validate_chrome_trace(bad)
        assert any("E without matching B" in v for v in violations)
        assert any("unclosed B" in v for v in violations)

    def test_accepts_balanced_begin_end(self):
        good = {
            "traceEvents": [
                {"ph": "B", "name": "a", "pid": 0, "tid": 0, "ts": 0},
                {"ph": "E", "name": "a", "pid": 0, "tid": 0, "ts": 1},
            ]
        }
        assert validate_chrome_trace(good) == []


class TestCommandLine:
    def _events_file(self, tmp_path):
        path = tmp_path / "events.jsonl"
        _tiny_retry_run(sink=JSONLSink(path))
        return path

    def test_report_and_chrome_export(self, tmp_path, capsys):
        events = self._events_file(tmp_path)
        out = tmp_path / "trace.json"
        code = trace_cli([str(events), "--chrome", str(out), "--report", "--validate"])
        assert code == 0
        captured = capsys.readouterr()
        assert "critical path" in captured.out
        assert "chrome trace schema: ok" in captured.err
        chrome = json.loads(out.read_text())
        assert validate_chrome_trace(chrome) == []

    def test_single_trial_report(self, tmp_path, capsys):
        events = self._events_file(tmp_path)
        code = trace_cli([str(events), "--trial", "1", "--report"])
        assert code == 0
        printed = capsys.readouterr().out
        assert "trial 1" in printed
        assert "retry_backoff" in printed

    def test_cli_matches_library_output(self, tmp_path):
        events = self._events_file(tmp_path)
        out = tmp_path / "trace.json"
        assert trace_cli([str(events), "--chrome", str(out)]) == 0
        expected = TraceBuilder.from_jsonl(events).build().chrome_trace_json()
        assert out.read_text() == expected

    def test_snapshot_only_flag_on_an_event_stream_is_a_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exit_info:
            trace_cli([str(self._events_file(tmp_path)), "--prom"])
        assert exit_info.value.code == 2
        assert "this file holds events" in capsys.readouterr().err


class TestTuneAndRunnerIntegration:
    def test_tune_trace_flag_on_simulated_backend(self):
        def train(config, state, from_resource, to_resource):
            return state, config["quality"]

        result = tune(
            train,
            toy_space(),
            max_resource=4,
            min_resource=1,
            eta=2,
            scheduler="asha",
            scheduler_kwargs={"max_trials": 6},
            num_workers=2,
            time_limit=50.0,
            seed=0,
            trace=True,
        )
        assert isinstance(result.trace, Trace)
        assert result.trace.incumbent() is not None
        assert validate_chrome_trace(result.trace.to_chrome_trace()) == []

    def test_tune_trace_flag_on_thread_backend(self):
        def train(config, state, from_resource, to_resource):
            return state, config["quality"]

        result = tune(
            train,
            toy_space(),
            max_resource=2,
            min_resource=1,
            eta=2,
            scheduler="asha",
            scheduler_kwargs={"max_trials": 4},
            num_workers=2,
            time_limit=30.0,
            backend="threads",
            seed=0,
            trace=True,
        )
        assert isinstance(result.trace, Trace)
        assert result.trace.trials
        assert validate_chrome_trace(result.trace.to_chrome_trace()) == []

    def test_run_trials_telemetry_out_writes_one_file_per_seed(self, tmp_path):
        out = tmp_path / "events"
        records = run_trials(
            "asha (quick)",
            lambda objective, rng: ASHA(
                objective.space, rng, min_resource=1, max_resource=9, eta=3, max_trials=8
            ),
            lambda seed: toy_objective(max_resource=9.0),
            num_workers=2,
            time_limit=40.0,
            seeds=[0, 1],
            telemetry_out=out,
        )
        for seed in (0, 1):
            path = telemetry_event_path(out, "asha (quick)", seed)
            assert path.exists()
            trace = TraceBuilder.from_jsonl(path).build()
            assert trace.trials
            assert validate_chrome_trace(trace.to_chrome_trace()) == []
        # The owned hub also collects metrics for the returned records.
        assert all(isinstance(r.backend.telemetry, MetricsReport) for r in records)

    def test_telemetry_factory_wins_over_telemetry_out(self, tmp_path):
        out = tmp_path / "events"
        run_trials(
            "asha",
            lambda objective, rng: ASHA(
                objective.space, rng, min_resource=1, max_resource=9, eta=3, max_trials=5
            ),
            lambda seed: toy_objective(max_resource=9.0),
            num_workers=2,
            time_limit=40.0,
            seeds=[0],
            telemetry=lambda seed: TelemetryHub.with_metrics(),
            telemetry_out=out,
        )
        assert not out.exists()


def test_a_metrics_hub_traces_through_its_collector():
    """``trace=True`` on a collector's hub adds no sink: one fold, one ``Trace``."""
    hub = TelemetryHub.with_metrics()
    result = SimulatedCluster(2, straggler_std=0.3, drop_probability=0.1, seed=4).run(
        ASHA(toy_space(), np.random.default_rng(4), min_resource=1, max_resource=9, eta=3,
             max_trials=12),
        toy_objective(max_resource=9.0),
        time_limit=40.0,
        telemetry=hub,
        trace=True,
    )
    assert not any(isinstance(sink, TraceBuilder) for sink in hub.sinks)
    assert result.failures  # drops put failed spans in the time lost
    assert result.trace is hub.metrics.builder.build()
    busy = {w: t.busy_time / result.elapsed for w, t in result.trace.workers.items()}
    assert result.telemetry.worker_utilization == busy
    assert result.telemetry.time_lost_to_failures == pytest.approx(math.fsum(
        a.duration for t in result.trace.trials.values() for a in t.attempts
        if a.outcome not in ("completed", "running")
    ), rel=1e-12)
