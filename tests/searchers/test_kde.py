"""Tests for KDESearcher: per-rung model bank + highest-ready-rung rule."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core.types import Trial
from repro.searchers import ORIGIN_MODEL, ORIGIN_RANDOM, KDESearcher


def feed(searcher, space, rng, n, rung=0):
    """Observe n (config, loss) pairs with loss == quality."""
    for i in range(n):
        config = space.sample(rng)
        trial = Trial(trial_id=1000 * rung + i, config=config)
        searcher.on_result(trial, 1.0, config["quality"], rung=rung)


def test_uniform_until_model_ready(one_d_space, rng):
    searcher = KDESearcher().setup(one_d_space)
    searcher.suggest(rng)
    assert searcher.origin == ORIGIN_RANDOM
    feed(searcher, one_d_space, rng, 2)
    searcher.suggest(rng)
    assert searcher.origin == ORIGIN_RANDOM  # 2 points < min needed


def test_model_kicks_in_with_observations(one_d_space, rng):
    searcher = KDESearcher(random_fraction=0.0).setup(one_d_space)
    feed(searcher, one_d_space, rng, 30)
    searcher.suggest(rng)
    assert searcher.origin == ORIGIN_MODEL
    assert searcher.num_observations(0) == 30


def test_highest_ready_rung_wins(one_d_space, rng):
    """With rung 1 ready, proposals come from its model, not rung 0's."""
    searcher = KDESearcher(random_fraction=0.0).setup(one_d_space)
    feed(searcher, one_d_space, rng, 30, rung=0)
    feed(searcher, one_d_space, rng, 30, rung=1)
    before = searcher.models[1].last_proposal_was_model
    searcher.suggest(rng)
    assert searcher.models[1].last_proposal_was_model
    assert searcher.origin == ORIGIN_MODEL
    del before


def test_model_concentrates_on_good_region(one_d_space):
    """Loss == quality, so proposals should skew far below the uniform mean."""
    rng = np.random.default_rng(7)
    searcher = KDESearcher(random_fraction=0.0).setup(one_d_space)
    feed(searcher, one_d_space, rng, 60)
    proposals = [searcher.suggest(rng)["quality"] for _ in range(30)]
    assert np.mean(proposals) < 0.35


def test_min_points_below_one_is_rejected_at_construction():
    with pytest.raises(ValueError, match="min_points"):
        KDESearcher(min_points=0)


def _feed_mixed(searcher, space, rng, n, rung):
    for i in range(n):
        config = space.sample(rng)
        loss = np.log10(config["lr"]) ** 2 / 25 + config["momentum"] if i % 9 else np.inf
        searcher.on_result(Trial(trial_id=1000 * rung + i, config=config), 1.0, loss, rung=rung)


def test_snapshot_with_a_warm_cache_resumes_the_same_proposals(mixed_space):
    """The cached fit is never serialized; a restored searcher refits to the same state."""
    rng = np.random.default_rng(5)
    live = KDESearcher().setup(mixed_space)
    _feed_mixed(live, mixed_space, rng, 40, rung=0)
    _feed_mixed(live, mixed_space, rng, 20, rung=1)
    while live.origin != ORIGIN_MODEL:
        live.suggest(rng)
    assert live.models[1]._fit is not None  # the next model proposal reuses it

    state = json.loads(json.dumps(live.state_dict()))
    assert set(state) == {
        "type", "last_origin", "num_suggestions", "num_results", "num_completions", "extra",
    }
    assert set(state["extra"]) == {"models"}
    for model_state in state["extra"]["models"].values():
        assert set(model_state) == {"x", "y", "last_proposal_was_model"}

    restored = KDESearcher().setup(mixed_space)
    restored.load_state(state)
    restored_rng = np.random.default_rng()
    restored_rng.bit_generator.state = rng.bit_generator.state
    for _ in range(50):
        assert restored.suggest(restored_rng) == live.suggest(rng)
        assert restored.origin == live.origin
    assert restored_rng.bit_generator.state == rng.bit_generator.state


def test_restored_nonfinite_losses_are_stored_as_observe_stores_them(one_d_space):
    searcher = KDESearcher().setup(one_d_space)
    state = searcher.state_dict()
    state["extra"] = {
        "models": {
            "0": {
                "x": [[0.1], [0.2], [0.3]],
                "y": [0.5, float("nan"), float("-inf")],
                "last_proposal_was_model": False,
            }
        }
    }
    searcher.load_state(state)
    assert searcher.models[0]._y == [0.5, np.inf, np.inf]
