"""Sinks: in-memory capture, canonical JSONL, ASCII live summary."""

from __future__ import annotations

import errno
import io
import json
import os

import numpy as np
import pytest

from repro.telemetry import (
    EventKind,
    InMemorySink,
    JSONLSink,
    LiveSummarySink,
    MetricsCollector,
    TelemetryHub,
    TelemetrySink,
    render_summary,
)


class TestProtocol:
    def test_sinks_satisfy_protocol(self):
        assert isinstance(InMemorySink(), TelemetrySink)
        assert isinstance(JSONLSink(io.StringIO()), TelemetrySink)
        assert isinstance(MetricsCollector(), TelemetrySink)
        assert isinstance(LiveSummarySink(io.StringIO()), TelemetrySink)


class TestInMemorySink:
    def test_records_in_order(self):
        sink = InMemorySink()
        hub = TelemetryHub([sink])
        hub.emit(EventKind.TRIAL_STARTED, trial_id=0)
        hub.emit(EventKind.REPORT, trial_id=0, loss=0.5)
        assert sink.kinds() == ["trial_started", "report"]
        assert len(sink) == 2


class TestJSONLSink:
    def test_canonical_line_format(self):
        buffer = io.StringIO()
        hub = TelemetryHub([JSONLSink(buffer)])
        hub.set_time(1.5)
        hub.emit(EventKind.REPORT, trial_id=3, rung=1, loss=0.25, resource=2)
        line = buffer.getvalue()
        assert line == (
            '{"data":{"loss":0.25,"resource":2},"kind":"report",'
            '"rung":1,"seq":0,"time":1.5,"trial_id":3}\n'
        )

    def test_wall_time_opt_in(self):
        buffer = io.StringIO()
        hub = TelemetryHub(
            [JSONLSink(buffer, include_wall_time=True)], wall_clock=lambda: 7.0
        )
        hub.emit(EventKind.WORKER_IDLE)
        assert json.loads(buffer.getvalue())["wall_time"] == 7.0

    def test_numpy_scalars_serialise_as_plain_numbers(self):
        buffer = io.StringIO()
        hub = TelemetryHub([JSONLSink(buffer)])
        hub.emit(
            EventKind.TRIAL_STARTED,
            trial_id=0,
            config={"lr": np.float64(0.5), "width": np.int64(8)},
        )
        decoded = json.loads(buffer.getvalue())
        assert decoded["data"]["config"] == {"lr": 0.5, "width": 8}
        assert "float64" not in buffer.getvalue()

    def test_writes_to_path(self, tmp_path):
        path = tmp_path / "events.jsonl"
        sink = JSONLSink(path)
        hub = TelemetryHub([sink])
        hub.emit(EventKind.REPORT, trial_id=0, loss=1.0)
        hub.close()
        lines = path.read_text().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["kind"] == "report"

    def test_write_after_close_raises(self, tmp_path):
        sink = JSONLSink(tmp_path / "events.jsonl")
        sink.close()
        sink.close()  # idempotent
        with pytest.raises(ValueError, match="closed"):
            sink.write(None)  # type: ignore[arg-type]

    def test_failed_fsync_of_a_real_file_is_not_swallowed(self, tmp_path, monkeypatch):
        """The rule the WAL and ``Journal._fsync`` follow: a sync that fails raises."""
        sink = JSONLSink(tmp_path / "events.jsonl")

        def failing_fsync(fd):
            raise OSError(errno.EIO, "injected fsync failure")

        monkeypatch.setattr(os, "fsync", failing_fsync)
        with pytest.raises(OSError, match="injected fsync failure"):
            sink.finalize(elapsed=1.0, num_workers=1)
        monkeypatch.undo()
        sink.close()

    def test_streams_with_nothing_to_sync_skip_the_fsync(self):
        JSONLSink(io.StringIO()).finalize()  # no descriptor at all
        read_fd, write_fd = os.pipe()  # a descriptor fsync rejects with EINVAL
        with open(read_fd), open(write_fd, "w") as pipe:
            sink = JSONLSink(pipe)
            sink.finalize()
            sink.close()


class TestLiveSummary:
    def test_renders_every_n_events(self):
        stream = io.StringIO()
        hub = TelemetryHub([LiveSummarySink(stream, every=2)])
        hub.emit(EventKind.TRIAL_STARTED, trial_id=0)
        assert stream.getvalue() == ""
        hub.emit(EventKind.REPORT, trial_id=0, rung=0, loss=0.5)
        assert "telemetry" in stream.getvalue()
        assert "rung  0" in stream.getvalue()

    def test_every_must_be_positive(self):
        with pytest.raises(ValueError):
            LiveSummarySink(io.StringIO(), every=0)

    def test_render_summary_contents(self):
        collector = MetricsCollector()
        hub = TelemetryHub([collector])
        hub.emit(EventKind.TRIAL_STARTED, trial_id=0)
        hub.emit(EventKind.JOB_STARTED, trial_id=0, job_id=0, worker_id=0)
        hub.set_time(1.0)
        hub.emit(EventKind.REPORT, trial_id=0, job_id=0, rung=0, worker_id=0, loss=0.5)
        hub.emit(EventKind.PROMOTION, trial_id=0, rung=1)
        text = render_summary(collector, now=1.0)
        assert "t=1" in text
        assert "trials=1" in text
        assert "jobs=1" in text
        assert "promotions=1" in text
        assert "rung  0" in text
        assert "promotion_latency" in text


class TestLiveSummaryFinalRender:
    def _finished_run(self, stream):
        hub = TelemetryHub([LiveSummarySink(stream, every=1000)])
        hub.emit(EventKind.TRIAL_STARTED, trial_id=0)
        hub.emit(EventKind.JOB_STARTED, trial_id=0, job_id=0, worker_id=0)
        hub.set_time(1.0)
        hub.emit(EventKind.REPORT, trial_id=0, job_id=0, rung=0, worker_id=0, loss=0.5)
        return hub

    def test_close_after_finalize_renders_markdown_summary(self):
        stream = io.StringIO()
        hub = self._finished_run(stream)
        hub.finalize(elapsed=2.0, num_workers=1)
        hub.close()
        text = stream.getvalue()
        assert "final summary" in text
        assert "| metric" in text
        assert "| mean utilisation" in text
        assert "50.0%" in text  # 1 busy unit over 1 worker x 2 elapsed

    def test_close_without_finalize_stays_quiet(self):
        stream = io.StringIO()
        hub = self._finished_run(stream)
        hub.close()
        assert stream.getvalue() == ""

    def test_final_summary_renders_once(self):
        stream = io.StringIO()
        hub = self._finished_run(stream)
        hub.finalize(elapsed=2.0, num_workers=1)
        hub.close()
        hub.close()
        assert stream.getvalue().count("final summary") == 1
