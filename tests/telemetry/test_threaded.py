"""Telemetry through the thread-pool backend and the tune() front door."""

from __future__ import annotations

import time

import pytest

from repro.searchspace import SearchSpace, Uniform
from repro.telemetry import InMemorySink, MetricsReport, TelemetryHub
from repro.tune import tune


def _space() -> SearchSpace:
    return SearchSpace({"quality": Uniform(0.0, 1.0)})


def _train(config, state, from_resource, to_resource):
    # A real (if tiny) amount of wall-clock work so busy time is non-zero.
    time.sleep(0.001 * (to_resource - from_resource))
    return state, config["quality"]


def _tuned(num_workers: int, telemetry):
    return tune(
        _train,
        _space(),
        max_resource=4,
        min_resource=1,
        eta=2,
        scheduler="asha",
        scheduler_kwargs={"max_trials": 8},
        num_workers=num_workers,
        time_limit=30.0,
        backend="threads",
        seed=1,
        telemetry=telemetry,
    )


class TestThreadedTelemetry:
    def test_per_worker_utilization_mean_matches_scalar(self):
        result = _tuned(3, True)
        report = result.backend_result.telemetry
        assert isinstance(report, MetricsReport)
        assert report.num_workers == 3
        scalar = result.backend_result.utilization
        assert scalar > 0.0
        # Both sides are derived from the same per-job busy intervals; the
        # acceptance bound is 1% but they agree to float precision.
        assert report.mean_utilization() == pytest.approx(scalar, rel=0.01)

    def test_event_stream_is_coherent(self):
        memory = InMemorySink()
        hub = TelemetryHub.with_metrics(memory)
        result = _tuned(2, hub)
        assert result.telemetry is hub
        kinds = set(memory.kinds())
        assert {"trial_started", "job_started", "report"} <= kinds
        # ASHA with from_checkpoint=True resumed promoted trials from disk.
        assert "promotion" in kinds
        assert "checkpoint_restored" in kinds
        workers = {e.worker_id for e in memory.events if e.worker_id is not None}
        assert workers <= {0, 1}
        # Sequence numbers are unique and ordered despite concurrent emission.
        seqs = [e.seq for e in memory.events]
        assert seqs == sorted(seqs) and len(set(seqs)) == len(seqs)
        # No event carries busy time; each report closes a trace span that
        # took real seconds, and those spans feed the utilisation series.
        assert not any(k.startswith("busy_") for e in memory.events for k in e.data)
        trace = hub.metrics.builder.build()
        spans = [a for t in trace.trials.values() for a in t.attempts if a.completed]
        reports = [e for e in memory.events if e.kind.value == "report"]
        assert reports and len(spans) == len(reports)
        assert all(span.duration > 0.0 for span in spans)

    def test_telemetry_off_leaves_result_bare(self):
        result = _tuned(2, None)
        assert result.telemetry is None
        assert result.backend_result.telemetry is None

    def test_tune_true_builds_hub_with_collector(self):
        result = _tuned(2, True)
        assert isinstance(result.telemetry, TelemetryHub)
        assert result.telemetry.metrics is not None
        report = result.backend_result.telemetry
        assert report.counters["jobs_started"] == report.counters.get(
            "events.report", 0
        ) + report.counters.get("jobs_failed", 0)
