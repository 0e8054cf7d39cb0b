"""Tests for the Searcher protocol base class (setup, counters, origins)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.types import Trial
from repro.searchers import (
    ORIGIN_RANDOM,
    RandomSearcher,
    SearcherError,
    build_searcher,
)
from repro.searchspace import SearchSpace, Uniform


def make_trial(trial_id=0, config=None):
    return Trial(trial_id=trial_id, config=config or {"x": 0.5})


def test_suggest_before_setup_rejected(rng):
    with pytest.raises(SearcherError):
        RandomSearcher().suggest(rng)


def test_setup_idempotent_for_same_space(one_d_space):
    searcher = RandomSearcher()
    searcher.setup(one_d_space)
    searcher.setup(one_d_space)  # the space it already holds: a no-op
    assert searcher.space is one_d_space


def test_rebind_to_different_space_rejected(one_d_space):
    searcher = RandomSearcher()
    searcher.setup(one_d_space)
    with pytest.raises(SearcherError):
        searcher.setup(SearchSpace({"other": Uniform(0.0, 1.0)}))


def test_counters_track_protocol_calls(one_d_space, rng):
    searcher = RandomSearcher()
    searcher.setup(one_d_space)
    config = searcher.suggest(rng)
    assert set(config) == set(one_d_space.names)
    assert searcher.num_suggestions == 1
    trial = make_trial(config=config)
    searcher.on_result(trial, 1.0, 0.4)
    searcher.on_result(trial, 4.0, 0.3, rung=1)
    assert searcher.num_results == 2
    searcher.on_trial_complete(trial, 0.3)
    assert searcher.num_completions == 1


def test_origin_recorded_by_default(one_d_space, rng):
    searcher = RandomSearcher()
    searcher.setup(one_d_space)
    searcher.suggest(rng)
    assert searcher.origin == ORIGIN_RANDOM


def test_origin_suppressed_when_recording_off(one_d_space, rng):
    searcher = RandomSearcher(record_origin=False)
    searcher.setup(one_d_space)
    searcher.suggest(rng)
    assert searcher.origin is None


def test_registry_resolves_every_name(one_d_space, rng):
    for name in ("random", "kde", "gp", "grid"):
        searcher = build_searcher(name, {})
        searcher.setup(one_d_space)
        assert set(searcher.suggest(rng)) == set(one_d_space.names)


def test_registry_rejects_unknown_name():
    with pytest.raises(KeyError, match="unknown searcher"):
        build_searcher("magic", {})


def test_registry_passes_instances_through(one_d_space):
    instance = RandomSearcher()
    assert build_searcher(instance, {}) is instance
    with pytest.raises(ValueError):
        build_searcher(instance, {"gamma": 0.2})
