"""End-to-end integration: every scheduler on every backend.

These are the "does the whole machine turn over" tests: each tuning
algorithm drives a full search against a real resumable objective on both
the simulated cluster and the thread pool, and must (a) produce
measurements, (b) improve over the uniform-sampling baseline, and (c) leave
its trial table in a consistent state.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.backend import SimulatedCluster, ThreadPoolBackend
from repro.core import (
    ASHA,
    PBT,
    AsyncHyperband,
    Fabolas,
    Hyperband,
    RandomSearch,
    SynchronousSHA,
    TrialStatus,
    build_scheduler,
)
from repro.experiments.toys import toy_objective
from repro.searchers import KDESearcher

R = 16.0


def all_schedulers(space, rng):
    geometry = dict(min_resource=1.0, max_resource=R, eta=4)
    return {
        "asha": ASHA(space, rng, min_resource=1.0, max_resource=R, eta=4),
        "asha-inf": ASHA(space, rng, min_resource=1.0, max_resource=None, eta=4),
        "sha": SynchronousSHA(
            space, rng, n=16, min_resource=1.0, max_resource=R, eta=4, grow_brackets=True
        ),
        "hyperband": Hyperband(space, rng, min_resource=1.0, max_resource=R, eta=4),
        "async-hb": AsyncHyperband(space, rng, min_resource=1.0, max_resource=R, eta=4),
        "random": RandomSearch(space, rng, max_resource=R),
        "pbt": PBT(space, rng, max_resource=R, interval=4.0, population_size=5),
        "bohb": build_scheduler(
            "bohb", space, rng, kwargs={"n": 16, "grow_brackets": True}, **geometry
        ),
        "async-bohb": ASHA(space, rng, searcher=KDESearcher(), **geometry),
        "vizier": build_scheduler(
            "vizier", space, rng, kwargs={"num_init": 5, "num_candidates": 32}, **geometry
        ),
        "fabolas": Fabolas(
            space, rng, max_resource=R, num_init=4, num_candidates=32, max_trials=150
        ),
    }


@pytest.mark.parametrize(
    "name",
    [
        "asha",
        "asha-inf",
        "sha",
        "hyperband",
        "async-hb",
        "random",
        "pbt",
        "bohb",
        "async-bohb",
        "vizier",
        "fabolas",
    ],
)
def test_scheduler_on_simulated_cluster(name):
    objective = toy_objective(max_resource=R, constant=False)
    rng = np.random.default_rng(7)
    scheduler = all_schedulers(objective.space, rng)[name]
    cluster = SimulatedCluster(4, seed=7, straggler_std=0.2)
    result = cluster.run(scheduler, objective, time_limit=60 * R)
    assert result.measurements, name
    # The search beats blind uniform guessing (expected quality 0.5).
    best = scheduler.best_trial()
    assert best is not None
    assert best.last_loss < 0.45, name
    # Trial-table consistency: every measured trial has a coherent status.
    for trial in scheduler.trials.values():
        if trial.measurements:
            assert trial.resource >= trial.measurements[-1].resource
        if trial.status == TrialStatus.COMPLETED and name not in ("fabolas",):
            assert trial.resource >= 1.0


@pytest.mark.parametrize("name", ["asha", "random", "pbt", "hyperband"])
def test_scheduler_on_thread_pool(name):
    objective = toy_objective(max_resource=R, constant=False)
    rng = np.random.default_rng(3)
    scheduler = all_schedulers(objective.space, rng)[name]
    backend = ThreadPoolBackend(3)
    result = backend.run(scheduler, objective, time_limit=10.0, max_measurements=150)
    assert result.measurements
    assert scheduler.best_trial().last_loss < 0.5


def test_same_scheduler_same_seed_same_answer_across_backends():
    """The simulator and the thread pool agree on *what* was learned for a
    sequential (1-worker) search, where scheduling order is deterministic."""

    def best_with(backend_factory):
        objective = toy_objective(max_resource=R, constant=False)
        rng = np.random.default_rng(11)
        scheduler = ASHA(
            objective.space, rng, min_resource=1.0, max_resource=R, eta=4, max_trials=20
        )
        backend_factory(scheduler, objective)
        return sorted(
            (t.config["quality"], t.resource) for t in scheduler.trials.values()
        )

    sim = best_with(
        lambda s, o: SimulatedCluster(1, seed=0).run(s, o, time_limit=1e9)
    )
    threaded = best_with(
        lambda s, o: ThreadPoolBackend(1).run(s, o, time_limit=60.0)
    )
    assert sim == threaded
