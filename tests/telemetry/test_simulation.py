"""Telemetry through the simulated cluster: determinism + hand-checked metrics.

The tiny ASHA run below is fully hand-traced: one worker, scripted
configurations ``0.1 < 0.2 < 0.3 < 0.4`` (loss == quality, cost == resource
delta), ``eta=2, r=1, R=4, max_trials=4``.  The event timeline is::

    t=0  trial 0 sampled, dispatched (rung 0)
    t=1  report T0=0.1; trial 1 dispatched
    t=2  report T1=0.2; promote T0 -> rung 1 (latency 1); dispatch
    t=3  restore+report T0 at rung 1; trial 2 dispatched
    t=4  report T2=0.3; trial 3 dispatched
    t=5  report T3=0.4; promote T1 -> rung 1 (latency 3); dispatch
    t=6  restore+report T1 at rung 1; promote T0 -> rung 2 (latency 3); dispatch
    t=8  restore+report T0 at rung 2 (top rung); scheduler done
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.backend.simulation import SimulatedCluster
from repro.core.asha import ASHA
from repro.core.sha import SynchronousSHA
from repro.experiments.runner import run_trials
from repro.experiments.toys import scripted_sampler, toy_objective, toy_space
from repro.searchers import FunctionSearcher
from repro.telemetry import InMemorySink, JSONLSink, MetricsReport, TelemetryHub


def _tiny_asha_run():
    scheduler = ASHA(
        toy_space(),
        np.random.default_rng(0),
        min_resource=1,
        max_resource=4,
        eta=2,
        max_trials=4,
        searcher=FunctionSearcher(scripted_sampler([0.1, 0.2, 0.3, 0.4])),
    )
    memory = InMemorySink()
    hub = TelemetryHub.with_metrics(memory)
    result = SimulatedCluster(1, seed=0).run(
        scheduler, toy_objective(max_resource=4.0), time_limit=100.0, telemetry=hub
    )
    return result, memory


class TestHandComputedRun:
    def test_event_sequence(self):
        _, memory = _tiny_asha_run()
        assert memory.kinds() == [
            "trial_started", "job_started",                                      # t=0
            "report", "trial_started", "job_started",                            # t=1
            "report", "promotion", "job_started",                                # t=2
            "checkpoint_restored", "report", "trial_started", "job_started",     # t=3
            "report", "trial_started", "job_started",                            # t=4
            "report", "promotion", "job_started",                                # t=5
            "checkpoint_restored", "report", "promotion", "job_started",         # t=6
            "checkpoint_restored", "report",                                     # t=8
        ]
        expected_times = [0, 0, 1, 1, 1, 2, 2, 2, 3, 3, 3, 3, 4, 4, 4, 5, 5, 5, 6, 6, 6, 6, 8, 8]
        assert [e.time for e in memory.events] == expected_times
        assert [e.seq for e in memory.events] == list(range(24))

    def test_counters(self):
        result, _ = _tiny_asha_run()
        report = result.telemetry
        assert isinstance(report, MetricsReport)
        assert report.counters["trials_started"] == 4
        assert report.counters["jobs_started"] == 7
        assert report.counters["promotions"] == 3
        assert report.counters["checkpoint_restores"] == 3
        assert report.counters["events.report"] == 7
        assert report.counters["events_total"] == 24
        assert "jobs_failed" not in report.counters
        assert report.failure_rate == 0.0

    def test_rung_occupancy(self):
        result, _ = _tiny_asha_run()
        report = result.telemetry
        assert report.rung_occupancy == {0: 4, 1: 2, 2: 1}
        assert report.rung_occupancy_series == [
            (1.0, 0, 1),
            (2.0, 0, 2),
            (3.0, 1, 1),
            (4.0, 0, 3),
            (5.0, 0, 4),
            (6.0, 1, 2),
            (8.0, 2, 1),
        ]

    def test_promotion_latency(self):
        result, _ = _tiny_asha_run()
        hist = result.telemetry.histograms["promotion_latency"]
        # T0 promoted at t=2 after reporting at t=1; T1 at t=5 after t=2;
        # T0 again at t=6 after its rung-1 report at t=3.
        assert hist["count"] == 3
        assert hist["sum"] == pytest.approx(7.0)
        assert hist["min"] == 1.0
        assert hist["max"] == 3.0

    def test_queue_wait_is_zero_on_saturated_worker(self):
        result, _ = _tiny_asha_run()
        hist = result.telemetry.histograms["queue_wait"]
        assert hist["count"] == 6  # every dispatch after the first
        assert hist["max"] == 0.0

    def test_utilization_matches_scalar(self):
        result, _ = _tiny_asha_run()
        report = result.telemetry
        assert result.elapsed == 8.0
        assert report.worker_utilization == {0: 1.0}
        assert report.mean_utilization() == pytest.approx(result.utilization)
        assert result.utilization == 1.0

    def test_promotion_events_carry_rungs(self):
        _, memory = _tiny_asha_run()
        promotions = [e for e in memory.events if e.kind.value == "promotion"]
        assert [(e.trial_id, e.rung, e.data["from_rung"]) for e in promotions] == [
            (0, 1, 0),
            (1, 1, 0),
            (0, 2, 1),
        ]


def _seeded_run(jsonl_path, *, scheduler_seed=3, cluster_seed=7):
    scheduler = ASHA(
        toy_space(),
        np.random.default_rng(scheduler_seed),
        min_resource=1,
        max_resource=9,
        eta=3,
        max_trials=30,
    )
    hub = TelemetryHub.with_metrics(JSONLSink(jsonl_path))
    cluster = SimulatedCluster(
        4, straggler_std=0.3, drop_probability=0.02, seed=cluster_seed
    )
    result = cluster.run(
        scheduler, toy_objective(max_resource=9.0), time_limit=60.0, telemetry=hub
    )
    hub.close()
    return result


class TestDeterminism:
    def test_seeded_runs_export_byte_identical_jsonl(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        _seeded_run(a)
        _seeded_run(b)
        assert a.read_bytes() == b.read_bytes()
        assert a.stat().st_size > 0

    def test_different_cluster_seed_changes_stream(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        _seeded_run(a)
        _seeded_run(b, cluster_seed=8)
        assert a.read_bytes() != b.read_bytes()

    def test_telemetry_does_not_perturb_the_search(self):
        """A hub is observational: results match a hub-less run exactly."""

        def run(telemetry):
            scheduler = ASHA(
                toy_space(),
                np.random.default_rng(5),
                min_resource=1,
                max_resource=9,
                eta=3,
                max_trials=20,
            )
            cluster = SimulatedCluster(3, straggler_std=0.2, seed=11)
            return cluster.run(
                scheduler,
                toy_objective(max_resource=9.0),
                time_limit=50.0,
                telemetry=telemetry,
            )

        plain = run(None)
        observed = run(TelemetryHub.with_metrics())
        assert plain.telemetry is None
        assert observed.telemetry is not None
        assert plain.measurements == observed.measurements
        assert plain.jobs_dispatched == observed.jobs_dispatched
        assert plain.elapsed == observed.elapsed
        assert plain.utilization == observed.utilization


class TestSynchronousSHA:
    def test_rung_completed_events(self):
        scheduler = SynchronousSHA(
            toy_space(),
            np.random.default_rng(0),
            n=4,
            min_resource=1,
            max_resource=4,
            eta=2,
            searcher=FunctionSearcher(scripted_sampler([0.1, 0.2, 0.3, 0.4])),
        )
        memory = InMemorySink()
        hub = TelemetryHub.with_metrics(memory)
        SimulatedCluster(1, seed=0).run(
            scheduler, toy_objective(max_resource=4.0), time_limit=100.0, telemetry=hub
        )
        barriers = [e for e in memory.events if e.kind.value == "rung_completed"]
        assert [(e.rung, e.data["size"], e.data["promoted"]) for e in barriers] == [
            (0, 4, 2),  # rung 0: four results, top half promoted
            (1, 2, 1),
            (2, 1, 0),  # top rung closes without promoting
        ]
        promotions = [e for e in memory.events if e.kind.value == "promotion"]
        assert [(e.trial_id, e.rung) for e in promotions] == [(0, 1), (1, 1), (0, 2)]


class TestRunnerIntegration:
    def test_run_trials_telemetry_factory(self):
        hubs = {}

        def factory(seed):
            hubs[seed] = TelemetryHub.with_metrics()
            return hubs[seed]

        records = run_trials(
            "asha",
            lambda objective, rng: ASHA(
                objective.space, rng, min_resource=1, max_resource=9, eta=3, max_trials=10
            ),
            lambda seed: toy_objective(max_resource=9.0),
            num_workers=2,
            time_limit=40.0,
            seeds=[0, 1],
            telemetry=factory,
        )
        assert set(hubs) == {0, 1}
        for record in records:
            assert isinstance(record.backend.telemetry, MetricsReport)
            assert record.backend.telemetry.counters["jobs_started"] > 0

    def test_run_trials_without_telemetry(self):
        records = run_trials(
            "asha",
            lambda objective, rng: ASHA(
                objective.space, rng, min_resource=1, max_resource=9, eta=3, max_trials=5
            ),
            lambda seed: toy_objective(max_resource=9.0),
            num_workers=2,
            time_limit=40.0,
            seeds=[0],
        )
        assert records[0].backend.telemetry is None
