"""Tests for synchronous Hyperband and its bracket sizing."""

from __future__ import annotations


from repro.backend import SimulatedCluster
from repro.core import Hyperband, hyperband_bracket_sizes
from repro.experiments.toys import toy_objective


class TestBracketSizes:
    def test_classic_example(self):
        # eta=3, R/r=9: s_max=2 -> n_s = ceil(3/(3-s) * 3**(2-s)).
        assert hyperband_bracket_sizes(1.0, 9.0, 3) == [9, 5, 3]

    def test_at_least_one_reaches_r(self):
        for eta in (2, 3, 4):
            for s_max in (1, 2, 3, 4):
                sizes = hyperband_bracket_sizes(1.0, float(eta**s_max), eta)
                for s, n_s in enumerate(sizes):
                    assert n_s >= eta ** (s_max - s)


class TestLooping:
    def test_brackets_run_in_order(self, one_d_space, rng, toy_obj):
        hb = Hyperband(one_d_space, rng, min_resource=1.0, max_resource=9.0, eta=3, max_loops=1)
        cluster = SimulatedCluster(2, seed=0)
        result = cluster.run(hb, toy_obj, time_limit=1e9)
        assert hb.is_done()
        assert hb.completed_brackets == 3
        # Bracket 0: 9 + 3 + 1 = 13 jobs; bracket 1: 5 + 1 = 6; bracket 2: 3.
        assert result.jobs_dispatched == 13 + 6 + 3

    def test_loops_again_without_cap(self, one_d_space, rng, toy_obj):
        hb = Hyperband(one_d_space, rng, min_resource=1.0, max_resource=9.0, eta=3)
        SimulatedCluster(2, seed=0).run(hb, toy_obj, time_limit=200.0)
        assert hb.completed_brackets > 3
        assert not hb.is_done()

    def test_base_resources_increase_with_s(self, one_d_space, rng, toy_obj):
        hb = Hyperband(one_d_space, rng, min_resource=1.0, max_resource=9.0, eta=3, max_loops=1)
        base_resources = []
        seen_brackets = set()
        while not hb.is_done():
            job = hb.next_job()
            if job is None:
                break
            if job.rung == 0 and hb.brackets_started not in seen_brackets:
                seen_brackets.add(hb.brackets_started)
                base_resources.append(job.resource)
            hb.report(job, job.config["quality"])
        assert base_resources == [1.0, 3.0, 9.0]

    def test_trial_table_shared(self, one_d_space, rng, toy_obj):
        hb = Hyperband(one_d_space, rng, min_resource=1.0, max_resource=9.0, eta=3, max_loops=1)
        SimulatedCluster(2, seed=0).run(hb, toy_obj, time_limit=1e9)
        # 9 + 5 + 3 distinct configurations, globally unique ids.
        assert hb.num_trials == 17
        assert sorted(hb.trials) == list(range(17))


class TestFailureHandling:
    def test_dropped_jobs_do_not_stall_looping(self, one_d_space, rng):
        objective = toy_objective()
        hb = Hyperband(one_d_space, rng, min_resource=1.0, max_resource=9.0, eta=3, max_loops=2)
        cluster = SimulatedCluster(3, seed=2, drop_probability=0.05)
        cluster.run(hb, objective, time_limit=1e9)
        assert hb.is_done()
        assert hb.completed_brackets == 6
