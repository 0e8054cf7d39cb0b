"""Tests for synchronous SHA (Algorithm 1) and its parallelisation."""

from __future__ import annotations

import pytest

from repro.backend import SimulatedCluster
from repro.core import SynchronousSHA, TrialStatus
from repro.experiments.toys import FIGURE2_QUALITIES, scripted_sampler
from repro.searchers import FunctionSearcher


def make_sha(space, rng, **kwargs):
    defaults = dict(n=9, min_resource=1.0, max_resource=9.0, eta=3)
    defaults.update(kwargs)
    return SynchronousSHA(space, rng, **defaults)


class TestValidation:
    def test_n_too_small_rejected(self, one_d_space, rng):
        with pytest.raises(ValueError, match="Algorithm 1"):
            make_sha(one_d_space, rng, n=8)

    def test_minimum_n_accepted(self, one_d_space, rng):
        make_sha(one_d_space, rng, n=9)
        make_sha(one_d_space, rng, n=3, early_stopping_rate=1)


class TestRungBarrier:
    def test_blocks_until_rung_complete(self, one_d_space, rng):
        sha = make_sha(one_d_space, rng)
        jobs = [sha.next_job() for _ in range(9)]
        assert all(j is not None and j.rung == 0 for j in jobs)
        # All 9 dispatched, none reported: a 10th worker gets nothing.
        assert sha.next_job() is None
        for job, q in zip(jobs[:-1], FIGURE2_QUALITIES):
            sha.report(job, q)
        assert sha.next_job() is None  # one straggler still out
        sha.report(jobs[-1], FIGURE2_QUALITIES[-1])
        promo = sha.next_job()
        assert promo.rung == 1

    def test_keeps_exactly_top_fraction(self, one_d_space, rng):
        sha = make_sha(
            one_d_space, rng, searcher=FunctionSearcher(scripted_sampler(FIGURE2_QUALITIES))
        )
        jobs = [sha.next_job() for _ in range(9)]
        for job in jobs:
            sha.report(job, job.config["quality"])
        survivors = {sha.next_job().trial_id for _ in range(3)}
        qualities = sorted(FIGURE2_QUALITIES)[:3]
        expected = {FIGURE2_QUALITIES.index(q) for q in qualities}
        assert survivors == expected

    def test_completes_single_bracket(self, one_d_space, rng, toy_obj):
        sha = make_sha(one_d_space, rng)
        result = SimulatedCluster(4, seed=1).run(sha, toy_obj, time_limit=1e6)
        assert sha.is_done()
        assert sha.next_job() is None
        assert result.jobs_dispatched == 13
        completed = [t for t in sha.trials.values() if t.status == TrialStatus.COMPLETED]
        assert len(completed) == 1


class TestDrops:
    def test_dropped_job_excluded_from_rung(self, one_d_space, rng):
        sha = make_sha(one_d_space, rng)
        jobs = [sha.next_job() for _ in range(9)]
        for job in jobs[:-1]:
            sha.report(job, job.config["quality"])
        sha.on_job_failed(jobs[-1])
        # Rung closed over 8 survivors; next rung target is still n//eta = 3.
        promos = [sha.next_job() for _ in range(3)]
        assert all(p is not None and p.rung == 1 for p in promos)
        assert jobs[-1].trial_id not in {p.trial_id for p in promos}

    def test_all_dropped_terminates_bracket(self, one_d_space, rng):
        sha = make_sha(one_d_space, rng, n=3, max_resource=3.0)
        jobs = [sha.next_job() for _ in range(3)]
        for job in jobs:
            sha.on_job_failed(job)
        assert sha.is_done()


class TestGrowBrackets:
    def test_blocked_scheduler_starts_new_bracket(self, one_d_space, rng):
        sha = make_sha(one_d_space, rng, grow_brackets=True)
        for _ in range(9):
            sha.next_job()
        # Rung 0 incomplete, but a free worker triggers a second bracket.
        job10 = sha.next_job()
        assert job10 is not None
        assert job10.rung == 0
        assert len(sha.runs) == 2

    def test_single_bracket_mode_stays_blocked(self, one_d_space, rng):
        sha = make_sha(one_d_space, rng, grow_brackets=False)
        for _ in range(9):
            sha.next_job()
        assert sha.next_job() is None
        assert len(sha.runs) == 1

    def test_grow_mode_never_done(self, one_d_space, rng, toy_obj):
        sha = make_sha(one_d_space, rng, grow_brackets=True)
        SimulatedCluster(3, seed=0).run(sha, toy_obj, time_limit=100.0)
        assert not sha.is_done()
        assert sha.completed_brackets >= 1


class TestEarlyStoppingRate:
    def test_s_shifts_base_resource(self, one_d_space, rng):
        sha = make_sha(one_d_space, rng, n=3, early_stopping_rate=1)
        job = sha.next_job()
        assert job.resource == 3.0  # r * eta**s

    def test_bracket_tags_on_jobs(self, one_d_space, rng):
        sha = make_sha(one_d_space, rng, grow_brackets=True)
        for _ in range(9):
            assert sha.next_job().bracket == 0
        assert sha.next_job().bracket == 1
