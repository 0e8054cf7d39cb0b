"""Tests for the Vizier stand-in (batched GP-EI).

The ``"vizier"``/``"gp"`` scheduler registry row: full-budget
:class:`RandomSearch` proposing from a :class:`GPEISearcher`.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.backend import SimulatedCluster
from repro.core import build_scheduler
from repro.experiments.toys import toy_objective
from repro.searchspace import SearchSpace, Uniform


def make_vizier(space, rng, *, max_resource=9.0, **kwargs):
    defaults = dict(num_init=5, num_candidates=64, refit_every=3)
    defaults.update(kwargs)
    return build_scheduler(
        "vizier", space, rng, min_resource=1.0, max_resource=max_resource, eta=3, kwargs=defaults
    )


def test_validation(one_d_space, rng):
    with pytest.raises(ValueError):
        make_vizier(one_d_space, rng, max_resource=0.0)


def test_all_jobs_full_resource(one_d_space, rng):
    vz = make_vizier(one_d_space, rng)
    for _ in range(8):
        job = vz.next_job()
        assert job.resource == 9.0
        vz.report(job, job.config["quality"])


def test_loss_cap_applied(one_d_space, rng):
    vz = make_vizier(one_d_space, rng, loss_cap=10.0)
    job = vz.next_job()
    vz.report(job, 1e9)
    assert vz.searcher.observed_losses[-1] == 10.0
    job = vz.next_job()
    vz.report(job, float("inf"))
    assert vz.searcher.observed_losses[-1] == 10.0


def test_nonfinite_without_cap_clamped(one_d_space, rng):
    vz = make_vizier(one_d_space, rng)
    job = vz.next_job()
    vz.report(job, float("nan"))
    assert np.isfinite(vz.searcher.observed_losses[-1])


def test_model_improves_over_random(rng):
    """On loss == quality, GP-EI should concentrate proposals near 0."""
    objective = toy_objective(max_resource=9.0)
    vz = make_vizier(objective.space, rng, max_trials=40)
    SimulatedCluster(1, seed=0).run(vz, objective, time_limit=1e6)
    xs = [t.config["quality"] for t in vz.trials.values()]
    assert np.mean(xs[-10:]) < np.mean(xs[:10])
    assert min(xs) < 0.05


def test_constant_liar_diversifies_batch(rng):
    """With many pending proposals and no new results, proposals spread out."""
    space = SearchSpace({"x": Uniform(0.0, 1.0)})
    vz = make_vizier(space, rng, num_init=6, refit_every=1)
    # Six initial random points, reported.
    for _ in range(6):
        job = vz.next_job()
        vz.report(job, job.config["x"])
    batch = [vz.next_job().config["x"] for _ in range(6)]
    assert np.std(batch) > 0.01  # not six copies of the same argmax


def test_failed_job_forgotten(one_d_space, rng):
    vz = make_vizier(one_d_space, rng)
    job = vz.next_job()
    assert vz.searcher.num_pending == 1
    vz.on_job_failed(job)
    assert vz.searcher.num_pending == 0
    assert vz.searcher.num_observations == 0


def test_max_trials_done(one_d_space, rng, toy_obj):
    vz = make_vizier(one_d_space, rng, max_trials=7)
    result = SimulatedCluster(3, seed=0).run(vz, toy_obj, time_limit=1e6)
    assert vz.is_done()
    assert result.jobs_dispatched == 7
