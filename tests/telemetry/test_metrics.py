"""Metric primitives and the event-folding MetricsCollector."""

from __future__ import annotations

import pytest

from repro.telemetry import (
    Counter,
    EventKind,
    Gauge,
    Histogram,
    MetricsCollector,
    MetricsRegistry,
    TelemetryHub,
)


class TestCounter:
    def test_increments(self):
        c = Counter("x")
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="cannot decrease"):
            Counter("x").inc(-1)


class TestGauge:
    def test_last_write_wins(self):
        g = Gauge("x")
        g.set(1.0)
        g.set(2.0)
        assert g.value == 2.0


class TestHistogram:
    def test_summary_stats(self):
        h = Histogram("x")
        for v in [4.0, 1.0, 3.0, 2.0]:
            h.observe(v)
        assert h.count == 4
        assert h.total == 10.0
        assert h.mean() == 2.5
        assert h.percentile(50) == 2.0
        assert h.percentile(100) == 4.0
        assert h.percentile(0) == 1.0
        summary = h.summary()
        assert summary["min"] == 1.0 and summary["max"] == 4.0

    def test_empty_summary(self):
        assert Histogram("x").summary() == {"count": 0}

    def test_percentile_bounds(self):
        h = Histogram("x")
        h.observe(1.0)
        with pytest.raises(ValueError):
            h.percentile(101)


class TestMetricsRegistry:
    def test_get_or_create(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")
        assert reg.gauge("b") is reg.gauge("b")
        assert reg.histogram("c") is reg.histogram("c")

    def test_snapshot_shape(self):
        reg = MetricsRegistry()
        reg.counter("a").inc()
        reg.gauge("b").set(2.0)
        reg.histogram("c").observe(1.0)
        snap = reg.snapshot()
        assert snap["counters"] == {"a": 1.0}
        assert snap["gauges"] == {"b": 2.0}
        assert snap["histograms"]["c"]["count"] == 1


def _hub() -> tuple[TelemetryHub, MetricsCollector]:
    collector = MetricsCollector()
    return TelemetryHub([collector], wall_clock=lambda: 0.0), collector


class TestMetricsCollector:
    def test_rung_occupancy_counts_distinct_trials(self):
        hub, collector = _hub()
        hub.set_time(1.0)
        hub.emit(EventKind.REPORT, trial_id=0, rung=0, loss=0.1)
        hub.emit(EventKind.REPORT, trial_id=1, rung=0, loss=0.2)
        hub.set_time(2.0)
        hub.emit(EventKind.REPORT, trial_id=0, rung=0, loss=0.1)  # re-report
        hub.emit(EventKind.REPORT, trial_id=0, rung=1, loss=0.1)
        assert collector.rung_occupancy() == {0: 2, 1: 1}
        report = collector.report()
        assert report.rung_occupancy_series == [(1.0, 0, 1), (1.0, 0, 2), (2.0, 1, 1)]
        assert report.gauges["rung_occupancy.0"] == 2

    def test_promotion_latency_from_last_report(self):
        hub, collector = _hub()
        hub.set_time(3.0)
        hub.emit(EventKind.REPORT, trial_id=5, rung=0, loss=0.1)
        hub.set_time(7.5)
        hub.emit(EventKind.PROMOTION, trial_id=5, rung=1)
        hist = collector.registry.histograms["promotion_latency"]
        assert hist.samples == [4.5]

    def test_promotion_without_prior_report_records_nothing(self):
        hub, collector = _hub()
        hub.emit(EventKind.PROMOTION, trial_id=9, rung=1)
        assert "promotion_latency" not in collector.registry.histograms
        assert collector.registry.counters["promotions"].value == 1

    def test_queue_wait_between_jobs_on_same_worker(self):
        hub, collector = _hub()
        hub.set_time(0.0)
        hub.emit(EventKind.JOB_STARTED, trial_id=0, job_id=0, worker_id=0)
        hub.set_time(2.0)
        hub.emit(EventKind.REPORT, trial_id=0, job_id=0, worker_id=0, loss=0.1)
        hub.set_time(2.75)
        hub.emit(EventKind.JOB_STARTED, trial_id=1, job_id=1, worker_id=0)
        hist = collector.report().histograms["queue_wait"]
        assert (hist["count"], hist["min"], hist["max"]) == (1, 0.75, 0.75)

    def test_span_durations_feed_utilization(self):
        hub, collector = _hub()
        hub.emit(EventKind.JOB_STARTED, trial_id=0, job_id=0, worker_id=0)
        hub.set_time(3.0)
        hub.emit(EventKind.REPORT, trial_id=0, job_id=0, worker_id=0, loss=0.1)
        hub.emit(EventKind.JOB_STARTED, trial_id=1, job_id=1, worker_id=1)
        hub.set_time(5.0)
        hub.emit(EventKind.REPORT, trial_id=1, job_id=1, worker_id=1, loss=0.2)
        collector.finalize(elapsed=10.0, num_workers=2)
        assert collector.worker_utilization() == {0: 0.3, 1: 0.2}
        report = collector.report()
        assert report.mean_utilization() == pytest.approx(0.25)
        assert report.utilization_series[-1] == (5.0, pytest.approx(5.0 / 20.0))

    def test_failure_rate(self):
        hub, collector = _hub()
        for trial in range(4):
            hub.emit(EventKind.JOB_STARTED, trial_id=trial, worker_id=trial)
        hub.emit(EventKind.JOB_FAILED, trial_id=0, worker_id=0, reason="dropped")
        collector.finalize(elapsed=1.0, num_workers=4)
        assert collector.report().failure_rate == pytest.approx(0.25)

    def test_event_counters(self):
        hub, collector = _hub()
        hub.emit(EventKind.TRIAL_STARTED, trial_id=0)
        hub.emit(EventKind.CHECKPOINT_RESTORED, trial_id=0)
        hub.emit(EventKind.RUNG_COMPLETED, rung=0)
        hub.emit(EventKind.WORKER_IDLE)
        counters = collector.registry.counters
        assert counters["events_total"].value == 4
        assert counters["trials_started"].value == 1
        assert counters["checkpoint_restores"].value == 1
        assert counters["rung_completions"].value == 1
        assert counters["worker_idle_polls"].value == 1

    def test_replay_produces_identical_report(self):
        """The collector is a pure fold over the event stream."""
        from repro.telemetry import InMemorySink

        memory = InMemorySink()
        live = MetricsCollector()
        hub = TelemetryHub([live, memory], wall_clock=lambda: 0.0)
        hub.emit(EventKind.JOB_STARTED, trial_id=0, job_id=0, worker_id=0)
        hub.set_time(1.0)
        hub.emit(EventKind.REPORT, trial_id=0, job_id=0, rung=0, worker_id=0, loss=0.5)
        hub.emit(EventKind.PROMOTION, trial_id=0, rung=1)
        replayed = MetricsCollector()
        for event in memory.events:
            replayed.write(event)
        for collector in (live, replayed):
            collector.finalize(elapsed=2.0, num_workers=1)
        assert live.report() == replayed.report()


class TestToMarkdown:
    def _report(self):
        hub, collector = _hub()
        hub.emit(EventKind.TRIAL_STARTED, trial_id=0)
        hub.emit(EventKind.JOB_STARTED, trial_id=0, job_id=0, worker_id=0)
        hub.set_time(4.0)
        hub.emit(EventKind.REPORT, trial_id=0, job_id=0, rung=0, worker_id=0, loss=0.5)
        hub.emit(EventKind.PROMOTION, trial_id=0, rung=1)
        hub.emit(EventKind.JOB_STARTED, trial_id=1, job_id=1, worker_id=1)
        hub.emit(EventKind.JOB_FAILED, trial_id=1, job_id=1, worker_id=1, reason="dropped")
        collector.finalize(elapsed=8.0, num_workers=2)
        return collector.report()

    def test_summary_table_values(self):
        table = self._report().to_markdown()
        lines = table.splitlines()
        assert lines[0].startswith("| metric")
        assert set(lines[1]) <= {"|", "-", " "}  # the separator row
        cells = {
            row.split("|")[1].strip(): row.split("|")[2].strip()
            for row in lines[2:]
        }
        assert cells["elapsed"] == "8"
        assert cells["workers"] == "2"
        assert cells["trials started"] == "1"
        assert cells["jobs started"] == "2"
        assert cells["reports"] == "1"
        assert cells["promotions"] == "1"
        assert cells["jobs failed"] == "1"
        assert cells["failure rate"] == "50.0%"
        assert cells["mean utilisation"] == "25.0%"  # 4 busy of 2 x 8
        assert cells["busy worker-time"] == "4"
        assert cells["idle worker-time"] == "12"

    def test_columns_align(self):
        lines = self._report().to_markdown().splitlines()
        assert len({len(line) for line in lines}) == 1
