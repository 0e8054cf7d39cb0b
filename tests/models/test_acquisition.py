"""Tests for acquisition functions and constant-liar batching."""

from __future__ import annotations

import numpy as np
import pytest

from repro.models import GaussianProcess, expected_improvement, propose_constant_liar, ucb


class TestExpectedImprovement:
    def test_zero_when_mean_far_above_best(self):
        ei = expected_improvement(np.array([10.0]), np.array([0.01]), best=0.0)
        assert ei[0] == pytest.approx(0.0, abs=1e-12)

    def test_large_when_mean_below_best(self):
        ei = expected_improvement(np.array([-1.0]), np.array([0.01]), best=0.0)
        assert ei[0] == pytest.approx(1.0, abs=1e-3)

    def test_monotone_in_std_at_equal_mean(self):
        ei = expected_improvement(np.array([0.5, 0.5]), np.array([0.1, 1.0]), best=0.0)
        assert ei[1] > ei[0]

    def test_never_negative(self):
        rng = np.random.default_rng(0)
        ei = expected_improvement(rng.normal(size=100), rng.random(100), best=0.0)
        assert np.all(ei >= 0)

    def test_xi_makes_greedy_less_attractive(self):
        ei0 = expected_improvement(np.array([-0.1]), np.array([0.05]), best=0.0, xi=0.0)
        ei1 = expected_improvement(np.array([-0.1]), np.array([0.05]), best=0.0, xi=0.5)
        assert ei1[0] < ei0[0]

    @pytest.mark.parametrize("xi", [0.0, 0.01, -0.3])
    def test_bit_equal_to_scipy_stats_norm(self, xi):
        """``ndtr`` and the written-out density are what ``norm.cdf``/``pdf``
        evaluate; EI dropped ``scipy.stats`` for its import and call cost, and
        must not have moved a bit (golden GP traces depend on the argmax)."""
        from scipy.stats import norm

        rng = np.random.default_rng(7)
        edge = np.array([0.0, -0.0, 1e-300, -1e-300, 40.0, -40.0, np.inf, -np.inf, np.nan])
        mean = np.concatenate([np.repeat(edge, 4), rng.normal(scale=3.0, size=20_000)])
        std = np.concatenate(
            [np.tile([0.0, 1e-12, 1.0, np.inf], len(edge)), rng.gamma(1.0, size=20_000)]
        )
        best = 0.25
        with np.errstate(all="ignore"):
            got = expected_improvement(mean, std, best, xi=xi)
            floored = np.maximum(std, 1e-12)
            gap = best - xi - mean
            z = gap / floored
            want = gap * norm.cdf(z) + floored * norm.pdf(z)
        assert np.isnan(got).any() and np.isfinite(got).any()
        assert np.array_equal(got, want, equal_nan=True)
        assert np.array_equal(np.signbit(got), np.signbit(want))


def test_ucb_prefers_low_mean_high_std():
    scores = ucb(np.array([0.0, 0.0, 1.0]), np.array([1.0, 0.1, 1.0]), beta=2.0)
    assert scores[0] > scores[1]
    assert scores[0] > scores[2]


class TestConstantLiar:
    def test_batch_has_distinct_picks(self):
        rng = np.random.default_rng(0)
        x = rng.random((10, 2))
        y = x[:, 0]
        candidates = rng.random((50, 2))
        gp = GaussianProcess()
        picks = propose_constant_liar(gp, x, y, candidates, batch_size=5)
        assert len(picks) == 5
        assert len(set(picks)) == 5

    def test_batch_capped_by_candidates(self):
        rng = np.random.default_rng(1)
        x = rng.random((5, 2))
        y = x[:, 0]
        candidates = rng.random((3, 2))
        picks = propose_constant_liar(GaussianProcess(), x, y, candidates, batch_size=10)
        assert len(picks) == 3

    def test_liar_spreads_batch(self):
        """Without the liar, all picks would sit at the same argmin region;
        with it, successive picks explore."""
        x = np.linspace(0, 1, 8)[:, None]
        y = (x[:, 0] - 0.3) ** 2
        candidates = np.linspace(0, 1, 41)[:, None]
        picks = propose_constant_liar(GaussianProcess(), x, y, candidates, batch_size=4)
        locations = candidates[picks][:, 0]
        assert locations.std() > 0.02
