"""Tests for the surrogate objective machinery."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.objectives.base import config_seed
from repro.objectives.curves import CurveProfile
from repro.objectives.surrogate import (
    SurrogateObjective,
    seeded_normal,
    seeded_uniform,
)
from repro.searchspace import SearchSpace, Uniform


def simple_objective(seed_salt=0, noise=0.0, noise_mode="gap"):
    space = SearchSpace({"q": Uniform(0.0, 1.0)})

    def profile(config, seed):
        return CurveProfile(
            asymptote=config["q"],
            initial_loss=config["q"] + 1.0,
            gamma=1.0,
            half_resource=2.0,
            noise_std=noise,
            noise_mode=noise_mode,
        )

    return SurrogateObjective(space, 16.0, profile, seed_salt=seed_salt)


class TestConfigSeed:
    def test_stable_across_calls(self):
        config = {"a": 1, "b": 0.25}
        assert config_seed(config) == config_seed(dict(config))

    def test_key_order_irrelevant(self):
        assert config_seed({"a": 1, "b": 2}) == config_seed({"b": 2, "a": 1})

    def test_salt_changes_seed(self):
        config = {"a": 1}
        assert config_seed(config, salt=0) != config_seed(config, salt=1)

    def test_numpy_scalars_normalised(self):
        assert config_seed({"a": np.float64(0.5)}) == config_seed({"a": 0.5})

    def test_different_configs_differ(self):
        assert config_seed({"a": 1}) != config_seed({"a": 2})


class TestSeededDraws:
    def test_deterministic(self):
        assert seeded_normal(42, 1.0) == seeded_normal(42, 1.0)
        assert seeded_uniform(42, 1.0) == seeded_uniform(42, 1.0)

    def test_varies_with_inputs(self):
        assert seeded_normal(42, 1.0) != seeded_normal(42, 2.0)
        assert seeded_normal(42, 1.0) != seeded_normal(43, 1.0)

    def test_uniform_range(self):
        draws = [seeded_uniform(s, 0.0) for s in range(500)]
        assert all(0 < u < 1 for u in draws)
        assert np.mean(draws) == pytest.approx(0.5, abs=0.07)

    def test_normal_moments(self):
        draws = [seeded_normal(s, 0.0) for s in range(1000)]
        assert np.mean(draws) == pytest.approx(0.0, abs=0.12)
        assert np.std(draws) == pytest.approx(1.0, abs=0.12)


class TestSurrogateObjective:
    def test_same_config_same_curve_across_instances(self):
        a, b = simple_objective(), simple_objective()
        config = {"q": 0.3}
        assert a.evaluate(config, 8.0) == b.evaluate(config, 8.0)

    def test_seed_salt_changes_noise_not_structure(self):
        a, b = simple_objective(noise=0.05), simple_objective(noise=0.05, seed_salt=7)
        config = {"q": 0.3}
        assert a.evaluate(config, 8.0) != b.evaluate(config, 8.0)
        assert a.clean_loss_at(config, 8.0) == b.clean_loss_at(config, 8.0)

    def test_resume_equals_direct(self):
        obj = simple_objective()
        config = {"q": 0.2}
        state = obj.initial_state(config)
        state, _ = obj.train(state, config, 0.0, 4.0)
        _, resumed = obj.train(state, config, 4.0, 16.0)
        assert resumed == pytest.approx(obj.evaluate(config, 16.0), rel=1e-9)

    def test_train_backwards_rejected(self):
        obj = simple_objective()
        config = {"q": 0.2}
        state = obj.initial_state(config)
        with pytest.raises(ValueError):
            obj.train(state, config, 4.0, 2.0)

    def test_gap_noise_deterministic_per_resource(self):
        obj = simple_objective(noise=0.1)
        config = {"q": 0.4}
        a = obj.evaluate(config, 8.0)
        b = obj.evaluate(config, 8.0)
        assert a == b
        assert a != obj.clean_loss_at(config, 8.0)

    def test_relative_noise_scales_with_loss(self):
        obj = simple_objective(noise=0.1, noise_mode="relative")
        config = {"q": 0.4}
        observed = obj.evaluate(config, 8.0)
        clean = obj.clean_loss_at(config, 8.0)
        assert abs(observed - clean) < 0.5 * clean + 1e-9

    def test_cost_multiplier_flows_through(self):
        space = SearchSpace({"q": Uniform(0.0, 1.0)})
        obj = SurrogateObjective(
            space,
            16.0,
            lambda c, s: CurveProfile(
                asymptote=0.1, initial_loss=1.0, cost_multiplier=3.0
            ),
        )
        assert obj.cost({"q": 0.5}, 0.0, 4.0) == 12.0

    def test_id_cache_safe_for_equal_configs(self):
        obj = simple_objective()
        c1 = {"q": 0.3}
        c2 = {"q": 0.3}  # equal contents, different identity
        assert obj.profile(c1) == obj.profile(c2)


@settings(max_examples=40, deadline=None)
@given(q=st.floats(0.0, 1.0), r=st.floats(0.0, 16.0))
def test_loss_bounded_by_profile(q, r):
    obj = simple_objective()
    config = {"q": q}
    loss = obj.evaluate(config, r)
    assert q - 1e-9 <= loss <= q + 1.0 + 1e-9
