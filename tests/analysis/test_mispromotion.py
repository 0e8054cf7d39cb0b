"""Tests for the Section 3.3 mispromotion Monte-Carlo."""

from __future__ import annotations

import numpy as np
import pytest

import reference_mispromotion as reference
from repro.analysis import mispromotion_curve, simulate_mispromotions


def test_tiny_pool_has_no_promotions():
    rng = np.random.default_rng(0)
    assert simulate_mispromotions(2, eta=4, rng=rng) == 0


def test_counts_nonnegative_and_bounded():
    rng = np.random.default_rng(0)
    for n in (16, 64, 256):
        count = simulate_mispromotions(n, eta=4, rng=rng)
        assert 0 <= count <= n // 4


def test_sqrt_scaling():
    """Mean mispromotions / sqrt(n) stays bounded as n grows (Section 3.3)."""
    studies = mispromotion_curve([64, 256, 1024], eta=4, repeats=15, seed=1)
    ratios = [s.ratio for s in studies]
    # Ratios stay O(1): within a small constant band, no growth trend > ~2x.
    assert all(0.05 < r < 3.0 for r in ratios)
    assert ratios[-1] < ratios[0] * 2.5


def test_counts_grow_sublinearly():
    studies = mispromotion_curve([64, 1024], eta=4, repeats=15, seed=2)
    small, large = studies[0].mean, studies[1].mean
    assert large > small  # more configs, more mistakes...
    assert large / small < (1024 / 64) * 0.5  # ...but much slower than linear


def test_study_fields():
    (study,) = mispromotion_curve([100], eta=3, repeats=5, seed=0)
    assert study.n == 100
    assert study.eta == 3
    assert study.sqrt_n == pytest.approx(10.0)
    assert study.std >= 0.0


@pytest.mark.parametrize("eta", [2, 3, 4])
@pytest.mark.parametrize("n", [3, 4, 17, 64, 257])
def test_the_system_rung_counts_what_the_reference_counts(n, eta):
    """The count comes from ``core.rung.Rung``; the pre-Rung scan is the oracle."""
    for seed in range(40):
        assert simulate_mispromotions(
            n, eta, np.random.default_rng(seed)
        ) == reference.simulate_mispromotions(n, eta, np.random.default_rng(seed))
