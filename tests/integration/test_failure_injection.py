"""Failure injection: drops, crashes mid-search, NaN/inf losses.

The paper's Appendix A.1 motivates ASHA with robustness to dropped jobs;
these tests inject failures into *every* scheduler and require the search to
keep making progress without crashing or deadlocking.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.backend import SimulatedCluster
from repro.core import (
    ASHA,
    PBT,
    AsyncHyperband,
    Hyperband,
    RandomSearch,
    SynchronousSHA,
    build_scheduler,
)
from repro.experiments.toys import toy_objective
from repro.objectives.curves import CurveProfile
from repro.objectives.surrogate import SurrogateObjective
from repro.searchspace import SearchSpace, Uniform

R = 16.0


def scheduler_zoo(space, rng):
    geometry = dict(min_resource=1.0, max_resource=R, eta=4)
    return [
        ASHA(space, rng, min_resource=1.0, max_resource=R, eta=4),
        SynchronousSHA(
            space, rng, n=16, min_resource=1.0, max_resource=R, eta=4, grow_brackets=True
        ),
        Hyperband(space, rng, min_resource=1.0, max_resource=R, eta=4),
        AsyncHyperband(space, rng, min_resource=1.0, max_resource=R, eta=4),
        RandomSearch(space, rng, max_resource=R),
        PBT(space, rng, max_resource=R, interval=4.0, population_size=5),
        build_scheduler("bohb", space, rng, kwargs={"n": 16, "grow_brackets": True}, **geometry),
        build_scheduler(
            "vizier", space, rng, kwargs={"num_init": 4, "num_candidates": 16}, **geometry
        ),
    ]


@pytest.mark.parametrize("drop_probability", [0.02, 0.08])
def test_all_schedulers_survive_drops(drop_probability):
    objective = toy_objective(max_resource=R, constant=False)
    for scheduler in scheduler_zoo(objective.space, np.random.default_rng(5)):
        cluster = SimulatedCluster(
            4, seed=5, drop_probability=drop_probability
        )
        result = cluster.run(scheduler, objective, time_limit=40 * R)
        name = f"{type(scheduler).__name__}+{type(scheduler.searcher).__name__}"
        assert result.failures, name  # failures really were injected
        assert result.measurements, name  # and progress still happened
        assert scheduler.best_trial() is not None, name


def nan_objective():
    """A surrogate where a fifth of the space returns NaN losses."""
    space = SearchSpace({"q": Uniform(0.0, 1.0)})

    def profile(config, seed):
        return CurveProfile(
            asymptote=config["q"], initial_loss=config["q"] + 0.5, half_resource=2.0
        )

    class NanObjective(SurrogateObjective):
        def train(self, state, config, from_resource, to_resource):
            state, loss = super().train(state, config, from_resource, to_resource)
            if config["q"] > 0.8:
                return state, float("nan")
            return state, loss

    return NanObjective(space, R, profile)


def test_nan_losses_never_win():
    objective = nan_objective()
    for scheduler in scheduler_zoo(objective.space, np.random.default_rng(9)):
        cluster = SimulatedCluster(4, seed=9)
        cluster.run(scheduler, objective, time_limit=30 * R)
        name = type(scheduler).__name__
        best = scheduler.best_trial()
        assert best is not None, name
        assert not math.isnan(best.last_loss), name


def test_asha_retries_dropped_promotions():
    """A dropped promotion job returns the config to the promotable pool."""
    objective = toy_objective(max_resource=R, constant=False)
    rng = np.random.default_rng(0)
    asha = ASHA(objective.space, rng, min_resource=1.0, max_resource=R, eta=4)
    # Manually drive: 4 base jobs, then a promotion we fail twice.
    jobs = [asha.next_job() for _ in range(4)]
    for job, loss in zip(jobs, (0.1, 0.2, 0.3, 0.4)):
        asha.report(job, loss)
    promo1 = asha.next_job()
    assert promo1.rung == 1
    asha.on_job_failed(promo1)
    promo2 = asha.next_job()
    assert promo2.rung == 1
    assert promo2.trial_id == promo1.trial_id  # same config retried
    asha.report(promo2, 0.05)
    assert asha.trials[promo2.trial_id].resource == 4.0


def test_sha_rung_closes_after_partial_drops():
    """Sync SHA must not deadlock when some rung jobs are dropped."""
    objective = toy_objective(max_resource=R, constant=False)
    rng = np.random.default_rng(0)
    sha = SynchronousSHA(
        objective.space, rng, n=16, min_resource=1.0, max_resource=R, eta=4
    )
    cluster = SimulatedCluster(4, seed=13, drop_probability=0.05)
    cluster.run(sha, objective, time_limit=1e6)
    assert sha.is_done()
