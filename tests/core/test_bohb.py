"""Tests for BOHB (sync SHA + TPE sampling) and its asynchronous sibling.

Neither is a class: ``"bohb"`` is a scheduler registry row (synchronous SHA
proposing from a :class:`KDESearcher`), asynchronous BOHB the pair
``ASHA`` + ``KDESearcher``.
"""

from __future__ import annotations

import numpy as np

from repro.backend import SimulatedCluster
from repro.core import ASHA, SynchronousSHA, build_scheduler
from repro.experiments.toys import toy_objective
from repro.searchers import KDESearcher, build_searcher


def by_name(scheduler, searcher, space, rng, *, min_resource, max_resource, eta, **kwargs):
    return build_scheduler(
        scheduler,
        space,
        rng,
        min_resource=min_resource,
        max_resource=max_resource,
        eta=eta,
        kwargs=kwargs,
        searcher=None if searcher is None else build_searcher(searcher),
    )


def BOHB(space, rng, **kwargs):
    """The registry's ``"bohb"`` row."""
    return by_name("bohb", None, space, rng, **kwargs)


def AsyncBOHB(space, rng, **kwargs):
    """Asynchronous BOHB needs no row: it is ``("asha", "kde")``."""
    return by_name("asha", "kde", space, rng, **kwargs)


def test_bohb_is_sha_with_model_sampling(rng):
    objective = toy_objective(max_resource=9.0)
    bohb = BOHB(
        objective.space, rng, n=9, min_resource=1.0, max_resource=9.0, eta=3
    )
    result = SimulatedCluster(3, seed=0).run(bohb, objective, time_limit=1e6)
    assert bohb.is_done()
    assert result.jobs_dispatched == 13  # identical bracket structure to SHA


def test_bohb_observations_feed_rung_models(rng):
    objective = toy_objective(max_resource=9.0)
    bohb = BOHB(objective.space, rng, n=9, min_resource=1.0, max_resource=9.0, eta=3)
    SimulatedCluster(3, seed=0).run(bohb, objective, time_limit=1e6)
    assert 0 in bohb.searcher.models
    assert bohb.searcher.num_observations(0) == 9
    assert bohb.searcher.num_observations(1) == 3


def test_bohb_sampling_concentrates_once_model_ready(rng):
    objective = toy_objective(max_resource=4.0)

    bohb = BOHB(
        objective.space,
        rng,
        n=64,
        min_resource=1.0,
        max_resource=4.0,
        eta=2,
        grow_brackets=True,
        random_fraction=0.1,
    )
    SimulatedCluster(4, seed=0).run(bohb, objective, time_limit=400.0)
    configs = [t.config["quality"] for t in bohb.trials.values()]
    # Loss == quality, so the KDE model must pull sampling far below the
    # uniform mean of 0.5 (the first few samples are random, then TPE bites).
    assert np.mean(configs) < 0.3
    assert np.mean(configs[32:]) < np.mean(configs[:8]) + 0.2


def trial_stream(sched):
    """(config, final loss) per trial, in trial-id order."""
    return [
        (tuple(sorted(t.config.items())), t.measurements[-1].loss if t.measurements else None)
        for t in sched.trials.values()
    ]


def test_bohb_is_exactly_sha_plus_kde_searcher():
    """The composition IS the algorithm: identical seeded trial streams."""
    objective = toy_objective(max_resource=9.0)
    kwargs = dict(n=27, min_resource=1.0, max_resource=9.0, eta=3, grow_brackets=True)
    bohb = BOHB(objective.space, np.random.default_rng(5), **kwargs)
    composed = SynchronousSHA(
        objective.space,
        np.random.default_rng(5),
        searcher=KDESearcher(record_origin=False),
        **kwargs,
    )
    SimulatedCluster(4, seed=5).run(bohb, objective, time_limit=300.0)
    SimulatedCluster(4, seed=5).run(composed, objective, time_limit=300.0)
    assert trial_stream(bohb) == trial_stream(composed)


def test_async_bohb_is_exactly_asha_plus_kde_searcher():
    objective = toy_objective(max_resource=9.0)
    kwargs = dict(min_resource=1.0, max_resource=9.0, eta=3)
    abohb = AsyncBOHB(objective.space, np.random.default_rng(6), **kwargs)
    composed = ASHA(
        objective.space,
        np.random.default_rng(6),
        searcher=KDESearcher(record_origin=False),
        **kwargs,
    )
    SimulatedCluster(4, seed=6).run(abohb, objective, time_limit=300.0)
    SimulatedCluster(4, seed=6).run(composed, objective, time_limit=300.0)
    assert trial_stream(abohb) == trial_stream(composed)


def test_async_bohb_runs_asha_promotions(rng):
    objective = toy_objective(max_resource=9.0)
    abohb = AsyncBOHB(objective.space, rng, min_resource=1.0, max_resource=9.0, eta=3)
    SimulatedCluster(2, seed=0).run(abohb, objective, time_limit=80.0)
    rungs = abohb.rung_sizes()
    assert rungs[0] > 0 and len(rungs) == 3
    assert abohb.searcher.num_observations(0) == rungs[0]
