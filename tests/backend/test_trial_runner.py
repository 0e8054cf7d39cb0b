"""Unit tests for the backend result record and the report path a run takes."""

from __future__ import annotations

import numpy as np

from repro.backend import SimulatedCluster
from repro.backend.trial_runner import BackendResult
from repro.core import ContractChecker, Hyperband, RandomSearch, SynchronousSHA
from repro.core.stopping import MedianStoppingRule, StoppingWrapper
from repro.experiments.toys import toy_objective, toy_space
from repro.study import Study, read_journal


class TestBackendResult:
    def test_first_completion_time(self):
        result = BackendResult()
        assert result.first_completion_time() is None
        result.completions = [(5.0, 1), (9.0, 2)]
        assert result.first_completion_time() == 5.0

    def test_num_completions_by_time(self):
        result = BackendResult(completions=[(5.0, 1), (9.0, 2), (20.0, 3)])
        assert result.num_completions() == 3
        assert result.num_completions(by_time=9.0) == 2
        assert result.num_completions(by_time=1.0) == 0


class TestRecordReport:
    """A completion tells the study, logs the measurement and maybe a completion."""

    @staticmethod
    def run(scheduler, *, max_resource=None, measurements=1):
        return SimulatedCluster(1, seed=0).run(
            scheduler,
            toy_objective(max_resource=9.0),
            time_limit=1e6,
            max_resource=max_resource,
            max_measurements=measurements,
        )

    def test_routes_to_scheduler_and_logs(self, one_d_space, rng):
        study = Study(RandomSearch(one_d_space, rng, max_resource=9.0))
        result = self.run(study)
        assert len(result.measurements) == 1
        m = result.measurements[0]
        assert (m.resource, m.time) == (9.0, result.elapsed)
        assert result.completions == [(m.time, m.trial_id)]
        # The scheduler recorded its own copy on the trial.
        assert study.trials[m.trial_id].last_loss == m.loss

    def test_result_is_journalled_with_its_time(self, one_d_space, rng, tmp_path):
        path = tmp_path / "run.journal.jsonl"
        study = Study(RandomSearch(one_d_space, rng, max_resource=9.0), journal=path)
        m = self.run(study).measurements[0]
        ask, tell = read_journal(path)[0][-2:]
        assert (tell["kind"], tell["loss"], tell["time"]) == ("tell", m.loss, m.time)
        assert (tell["job_id"], tell["trial_id"]) == (ask["job_id"], m.trial_id)

    def test_partial_resource_not_a_completion(self, one_d_space, rng):
        result = self.run(RandomSearch(one_d_space, rng, max_resource=9.0), max_resource=20.0)
        assert len(result.measurements) == 1
        assert result.completions == []

    def test_bracket_snapshots_parallel_to_measurements(self, one_d_space, rng):
        # RandomSearch has no bracket notion: every snapshot is None.
        result = self.run(RandomSearch(one_d_space, rng, max_resource=9.0), measurements=3)
        assert len(result.bracket_snapshots) == len(result.measurements) == 3
        assert result.bracket_snapshots == [None, None, None]

    def test_bracket_counter_is_read_at_each_report(self, one_d_space, rng):
        # ``completed_brackets`` is a mutated int attribute on SynchronousSHA
        # and on Hyperband; it is read live at each report.
        sha = SynchronousSHA(one_d_space, rng, n=9, min_resource=1.0, max_resource=9.0, eta=3)
        hyperband = Hyperband(
            one_d_space, np.random.default_rng(1), min_resource=1.0, max_resource=9.0, eta=3,
            max_loops=1,
        )
        for scheduler in (sha, hyperband):
            result = self.run(scheduler, measurements=None)
            snapshots = result.bracket_snapshots
            assert len(snapshots) == len(result.measurements)
            assert snapshots[0] == 0
            assert snapshots == sorted(snapshots)
            assert snapshots[-1] == scheduler.completed_brackets >= 1

    def test_wrappers_read_the_bracket_counter_through(self):
        # A wrapper reports the counter of the scheduler it wraps, not the
        # base class's ``None``.
        def hyperband():
            return Hyperband(
                toy_space(), np.random.default_rng(0), min_resource=1, max_resource=9, eta=3,
                max_loops=1,
            )

        def snapshots(scheduler):
            result = SimulatedCluster(2, seed=0).run(
                scheduler, toy_objective(max_resource=9.0), time_limit=1e6
            )
            return result.bracket_snapshots

        bare = snapshots(hyperband())
        assert bare[-1] == 3
        assert snapshots(ContractChecker(hyperband())) == bare
        assert snapshots(StoppingWrapper(hyperband(), MedianStoppingRule())) == bare
