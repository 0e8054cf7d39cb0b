"""Tests for the scheduler contract checker — and, through it, a sweep
asserting that every scheduler in the library honours the protocol."""

from __future__ import annotations

import numpy as np
import pytest

from repro.backend import SimulatedCluster
from repro.core import (
    SCHEDULERS,
    ContractChecker,
    ContractViolation,
    ParallelAsyncHyperband,
    RandomSearch,
    build_scheduler,
)
from repro.core.types import Job, TrialStatus
from repro.experiments.toys import toy_objective
from repro.searchers import SEARCHERS, GridSearcher, RandomSearcher, build_searcher

R = 16.0


class TestCheckerCatchesViolations:
    def test_report_without_dispatch(self, one_d_space, rng):
        checker = ContractChecker(RandomSearch(one_d_space, rng, max_resource=R))
        rogue = Job(job_id=999, trial_id=0, config={"quality": 0.5}, resource=R)
        with pytest.raises(ContractViolation):
            checker.report(rogue, 0.5)

    def test_double_report(self, one_d_space, rng):
        checker = ContractChecker(RandomSearch(one_d_space, rng, max_resource=R))
        job = checker.next_job()
        checker.report(job, 0.5)
        with pytest.raises(ContractViolation):
            checker.report(job, 0.5)

    def test_backwards_job_detected(self, one_d_space, rng):
        class Backwards(RandomSearch):
            def next_job(self):
                trial = self.new_trial(self.space.sample(self.rng))
                trial.resource = 10.0
                return self.make_job(trial, 5.0)

        checker = ContractChecker(Backwards(one_d_space, rng, max_resource=R))
        with pytest.raises(ContractViolation):
            checker.next_job()


class TestCheckerAuditsSearcherProtocol:
    def test_loss_never_forwarded_detected(self, one_d_space, rng):
        class DropsFeedback(RandomSearch):
            def report(self, job, loss):  # forgets searcher.on_result
                self.note_result(job, loss)
                self.trials[job.trial_id].status = TrialStatus.COMPLETED

        sched = DropsFeedback(one_d_space, rng, max_resource=R, searcher=RandomSearcher())
        checker = ContractChecker(sched)
        job = checker.next_job()
        with pytest.raises(ContractViolation, match="0 times"):
            checker.report(job, 0.5)

    def test_loss_forwarded_twice_detected(self, one_d_space, rng):
        class DoubleFeeds(RandomSearch):
            def report(self, job, loss):
                super().report(job, loss)
                self.searcher.on_result(self.trials[job.trial_id], job.resource, loss)

        sched = DoubleFeeds(one_d_space, rng, max_resource=R, searcher=RandomSearcher())
        checker = ContractChecker(sched)
        job = checker.next_job()
        with pytest.raises(ContractViolation, match="2 times"):
            checker.report(job, 0.5)

    def test_suggest_after_exhaustion_detected(self, one_d_space, rng):
        class ExhaustedButWilling(RandomSearcher):
            def is_done(self):  # claims exhaustion yet still answers suggest()
                return True

        class IgnoresExhaustion(RandomSearch):
            def next_job(self):  # skips the searcher_exhausted() guard
                config, origin = self.propose_config()
                trial = self.new_trial(config, origin=origin)
                return self.make_job(trial, self.max_resource)

        sched = IgnoresExhaustion(
            one_d_space, rng, max_resource=R, searcher=ExhaustedButWilling()
        )
        checker = ContractChecker(sched)
        with pytest.raises(ContractViolation, match="exhausted"):
            checker.next_job()

    def test_grid_searcher_exhaustion_respected_end_to_end(self, one_d_space, rng):
        checker = ContractChecker(
            RandomSearch(
                one_d_space,
                rng,
                max_resource=R,
                searcher=GridSearcher(points_per_dim=2, shuffle=False),
            )
        )
        for _ in range(2):
            checker.report(checker.next_job(), 0.5)
        assert checker.next_job() is None  # guard holds; no suggest() issued
        assert checker.is_done()

    def test_compliant_scheduler_passes(self, one_d_space, rng):
        checker = ContractChecker(
            RandomSearch(one_d_space, rng, max_resource=R, searcher=RandomSearcher())
        )
        for _ in range(5):
            checker.report(checker.next_job(), 0.5)


GEOMETRY = dict(min_resource=1.0, max_resource=R, eta=4)

#: ``scheduler_kwargs`` sizing each registry row for the toy budget.
SCHEDULER_KWARGS = {
    "sha": {"n": 16, "grow_brackets": True},
    "bohb": {"n": 16, "grow_brackets": True},
    "pbt": {"interval": 4.0, "population_size": 5},
    "gp": {"num_init": 6, "num_candidates": 32, "max_fit_points": 40},
}
#: ``searcher_kwargs`` keeping the matrix cheap (GP fits are cubic).
SEARCHER_KWARGS = {
    "gp": {"num_init": 6, "num_candidates": 32, "max_fit_points": 40},
    "grid": {"points_per_dim": 8},
}


def from_registry(scheduler, searcher):
    def build(space, rng):
        return build_scheduler(
            scheduler,
            space,
            rng,
            kwargs=dict(SCHEDULER_KWARGS.get(scheduler, {})),
            searcher=searcher and build_searcher(searcher, SEARCHER_KWARGS.get(searcher)),
            **GEOMETRY,
        )

    return build


#: Every registered scheduler x (no searcher, every registered searcher),
#: plus the pairs that have no registry name.
MATRIX = {
    scheduler + (f"+{searcher}" if searcher else ""): from_registry(scheduler, searcher)
    for scheduler in SCHEDULERS
    for searcher in (None, *SEARCHERS)
}
MATRIX["parallel-hb"] = lambda s, rng: ParallelAsyncHyperband(s, rng, **GEOMETRY)
MATRIX["grid"] = lambda s, rng: RandomSearch(
    s, rng, max_resource=R, searcher=GridSearcher(points_per_dim=8, shuffle=False)
)
#: Rows that own their sampling: the registry refuses them a searcher.
REJECTED = {name for name in MATRIX if name.startswith(("bohb+", "pbt+"))}


def test_matrix_spans_the_registry():
    # No new surface: the names are the ones journals and ``tune`` calls use.
    assert SCHEDULERS == (
        "asha", "sha", "hyperband", "async_hyperband", "bohb", "random", "pbt", "gp"
    )
    assert SEARCHERS == ("random", "kde", "gp", "grid")
    assert len(MATRIX) == 8 * 5 + 2 and len(REJECTED) == 2 * 4


@pytest.mark.parametrize("name", sorted(REJECTED))
def test_self_sampling_rows_refuse_a_searcher(name, one_d_space, rng):
    with pytest.raises(ValueError, match="owns its own sampling"):
        MATRIX[name](one_d_space, rng)


@pytest.mark.parametrize("name", sorted(set(MATRIX) - REJECTED))
def test_scheduler_honours_contract(name):
    """Full searches under stragglers and drops, protocol-checked throughout."""
    objective = toy_objective(max_resource=R, constant=False)
    rng = np.random.default_rng(17)
    checker = ContractChecker(MATRIX[name](objective.space, rng))
    cluster = SimulatedCluster(4, seed=17, straggler_std=0.3, drop_probability=0.02)
    result = cluster.run(checker, objective, time_limit=40 * R)
    assert result.measurements
    assert checker.jobs_seen == result.jobs_dispatched
    # Nothing left dangling except jobs cut off by the time limit.
    assert checker.outstanding_jobs <= 4
