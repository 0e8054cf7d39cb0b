"""Tests for asynchronous Hyperband (looping ASHA brackets by budget)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.backend import SimulatedCluster
from repro.core import AsyncHyperband, ParallelAsyncHyperband
from repro.experiments.toys import toy_objective, toy_space
from repro.searchers.grid import GridSearcher


def make_ahb(space, rng, **kwargs):
    defaults = dict(min_resource=1.0, max_resource=9.0, eta=3)
    defaults.update(kwargs)
    return AsyncHyperband(space, rng, **defaults)


class TestConstruction:
    def test_requires_finite_horizon(self, one_d_space, rng):
        with pytest.raises(ValueError):
            AsyncHyperband(one_d_space, rng, min_resource=1.0, max_resource=None, eta=3)

    def test_bracket_cap_validated(self, one_d_space, rng):
        with pytest.raises(ValueError):
            make_ahb(one_d_space, rng, brackets=0)
        with pytest.raises(ValueError):
            make_ahb(one_d_space, rng, brackets=9)
        make_ahb(one_d_space, rng, brackets=2)


class TestBudgetSwitching:
    def test_switches_after_bracket_budget(self, one_d_space, rng):
        ahb = make_ahb(one_d_space, rng)
        assert ahb.current_bracket == 0
        # Bracket 0 budget = total SHA budget for n_0=9: 27 resource units.
        dispatched = 0.0
        while ahb.current_bracket == 0:
            job = ahb.next_job()
            dispatched += job.delta_resource
            ahb.report(job, job.config["quality"])
        assert dispatched >= 27.0
        assert ahb.current_bracket == 1

    def test_base_rung_resource_tracks_bracket(self, one_d_space, rng):
        ahb = make_ahb(one_d_space, rng)
        seen = {}
        for _ in range(60):
            job = ahb.next_job()
            if job.rung == 0:
                seen.setdefault(job.bracket, job.resource)
            ahb.report(job, job.config["quality"])
        # Bracket s has base resource eta**s.
        for bracket, resource in seen.items():
            assert resource == 3.0**bracket

    def test_cycles_back_to_first_bracket(self, one_d_space, rng, toy_obj):
        ahb = make_ahb(one_d_space, rng, brackets=2)
        SimulatedCluster(2, seed=0).run(ahb, toy_obj, time_limit=300.0)
        sizes = ahb.rung_sizes()
        assert len(sizes) == 2
        assert sizes[0][0] > 0 and sizes[1][0] > 0  # both brackets received work

    def test_reports_route_to_owning_bracket(self, one_d_space, rng, toy_obj):
        ahb = make_ahb(one_d_space, rng)
        SimulatedCluster(3, seed=1).run(ahb, toy_obj, time_limit=200.0)
        total_rung0 = sum(sizes[0] for sizes in ahb.rung_sizes() if sizes)
        measured = sum(1 for t in ahb.trials.values() if t.measurements)
        assert total_rung0 <= measured  # every rung entry belongs to a measured trial


class TestDrops:
    def test_survives_dropped_jobs(self, one_d_space, rng):
        objective = toy_objective()
        ahb = make_ahb(one_d_space, rng)
        result = SimulatedCluster(3, seed=3, drop_probability=0.05).run(
            ahb, objective, time_limit=300.0
        )
        assert result.failures  # drops actually happened
        assert len(result.measurements) > 50  # and the search kept going


@pytest.mark.parametrize("cls", [AsyncHyperband, ParallelAsyncHyperband])
def test_exhausted_searcher_drains_every_bracket(cls):
    """When the searcher runs out, the other brackets' promotions still run.

    The loop used to ask only its current bracket, so the search ended with
    bracket 1 still holding a promotable trial; now it asks the others in
    loop order, and the search ends only once no bracket has work left."""
    scheduler = cls(
        toy_space(),
        np.random.default_rng(1),
        min_resource=1,
        max_resource=9,
        eta=3,
        searcher=GridSearcher(points_per_dim=40),
    )
    SimulatedCluster(4, seed=0).run(scheduler, toy_objective(), time_limit=10_000)
    assert scheduler.is_done()
    assert all(bracket.find_promotion() is None for bracket in scheduler.brackets)
