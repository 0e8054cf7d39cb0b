"""Unit tests for the shared backend plumbing (BackendResult, record_report)."""

from __future__ import annotations


from repro.backend.trial_runner import BackendResult, bracket_counter, record_report
from repro.core import Hyperband, RandomSearch, SynchronousSHA
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
    def test_routes_to_scheduler_and_logs(self, one_d_space, rng):
        study = Study(RandomSearch(one_d_space, rng, max_resource=9.0))
        job = study.ask()
        result = BackendResult()
        record_report(result, study, job, loss=0.4, time=7.0, max_resource=9.0, snapshot=None)
        assert len(result.measurements) == 1
        m = result.measurements[0]
        assert (m.trial_id, m.resource, m.loss, m.time) == (job.trial_id, 9.0, 0.4, 7.0)
        assert result.completions == [(7.0, job.trial_id)]
        # The scheduler recorded its own copy on the trial.
        assert study.trials[job.trial_id].last_loss == 0.4

    def test_result_is_journalled_with_its_time(self, one_d_space, rng, tmp_path):
        path = tmp_path / "run.journal.jsonl"
        study = Study(RandomSearch(one_d_space, rng, max_resource=9.0), journal=path)
        job = study.ask()
        record_report(
            BackendResult(), study, job, loss=0.4, time=7.0, max_resource=9.0, snapshot=None
        )
        study.finalize()
        tell = read_journal(path)[0][-1]
        assert (tell["kind"], tell["job_id"], tell["loss"], tell["time"]) == (
            "tell", job.job_id, 0.4, 7.0
        )

    def test_partial_resource_not_a_completion(self, one_d_space, rng):
        study = Study(RandomSearch(one_d_space, rng, max_resource=9.0))
        job = study.ask()
        result = BackendResult()
        record_report(result, study, job, loss=0.4, time=7.0, max_resource=20.0, snapshot=None)
        assert result.completions == []

    def test_bracket_snapshots_parallel_to_measurements(self, one_d_space, rng):
        study = Study(RandomSearch(one_d_space, rng, max_resource=9.0))
        snapshot = bracket_counter(study)
        assert snapshot is None  # no bracket notion
        result = BackendResult()
        for _ in range(3):
            job = study.ask()
            record_report(
                result, study, job, loss=0.5, time=1.0, max_resource=None, snapshot=snapshot
            )
        assert len(result.bracket_snapshots) == len(result.measurements) == 3
        assert result.bracket_snapshots == [None, None, None]

    def test_bracket_counter_reads_method_and_attribute(self, one_d_space, rng):
        # ``completed_brackets`` is a method on SynchronousSHA and a plain,
        # mutated attribute on Hyperband; both resolve to a live reader.
        sha = SynchronousSHA(one_d_space, rng, n=9, min_resource=1.0, max_resource=9.0, eta=3)
        assert bracket_counter(Study(sha))() == 0
        hyperband = Hyperband(one_d_space, rng, min_resource=1.0, max_resource=9.0, eta=3)
        reader = bracket_counter(Study(hyperband))
        assert reader() == 0
        hyperband.completed_brackets = 2
        assert reader() == 2
