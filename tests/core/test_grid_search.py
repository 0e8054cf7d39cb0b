"""Tests for the grid-search baseline.

Classic grid search is the pair ``RandomSearch`` + ``GridSearcher``: every
lattice point trained to ``max_resource``, then done.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.backend import SimulatedCluster
from repro.core import RandomSearch
from repro.searchers import GridSearcher
from repro.searchspace import Choice, SearchSpace, Uniform


def GridSearch(space, rng, *, max_resource, **grid_kwargs):
    return RandomSearch(space, rng, max_resource=max_resource, searcher=GridSearcher(**grid_kwargs))


def test_validation(one_d_space, rng):
    with pytest.raises(ValueError):
        GridSearch(one_d_space, rng, max_resource=0.0)
    with pytest.raises(ValueError):
        GridSearch(one_d_space, rng, max_resource=9.0, points_per_dim=1)


def test_grid_size(rng):
    space = SearchSpace({"a": Choice([1, 2, 3]), "b": Uniform(0.0, 1.0)})
    gs = GridSearch(space, rng, max_resource=9.0, points_per_dim=4)
    assert gs.searcher.grid_size == 12


def test_visits_every_point_once(rng, toy_obj):
    gs = GridSearch(toy_obj.space, rng, max_resource=9.0, points_per_dim=5)
    result = SimulatedCluster(2, seed=0).run(gs, toy_obj, time_limit=1e9)
    assert gs.is_done()
    assert result.jobs_dispatched == 5
    qualities = sorted(t.config["quality"] for t in gs.trials.values())
    assert qualities == pytest.approx([0.0, 0.25, 0.5, 0.75, 1.0])


def test_shuffle_changes_order(toy_obj):
    def order(shuffle, seed):
        gs = GridSearch(
            toy_obj.space,
            np.random.default_rng(seed),
            max_resource=9.0,
            points_per_dim=6,
            shuffle=shuffle,
        )
        return [gs.next_job().config["quality"] for _ in range(6)]

    assert order(False, 0) == sorted(order(False, 0))
    assert order(True, 1) != order(False, 1)


def test_exhausted_grid_returns_none(rng, toy_obj):
    gs = GridSearch(toy_obj.space, rng, max_resource=9.0, points_per_dim=2)
    jobs = [gs.next_job() for _ in range(2)]
    assert gs.next_job() is None
    assert not gs.is_done()  # still outstanding
    for job in jobs:
        gs.report(job, job.config["quality"])
    assert gs.is_done()
