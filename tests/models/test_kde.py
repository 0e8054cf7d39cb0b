"""Tests for the TPE-style KDE sampler."""

from __future__ import annotations

import numpy as np
import pytest

from repro.models import DensityEstimate, TPESampler


class TestDensityEstimate:
    def test_requires_points(self):
        with pytest.raises(ValueError):
            DensityEstimate(np.empty((0, 2)))

    def test_pdf_peaks_at_data(self):
        points = np.array([[0.2, 0.2], [0.21, 0.19], [0.8, 0.8]])
        kde = DensityEstimate(points)
        dense = kde.pdf(np.array([[0.2, 0.2]]))[0]
        sparse = kde.pdf(np.array([[0.5, 0.5]]))[0]
        assert dense > sparse

    def test_samples_clipped_to_unit_cube(self):
        rng = np.random.default_rng(0)
        kde = DensityEstimate(np.array([[0.01, 0.99]]))
        samples = kde.sample(200, rng)
        assert np.all((0 <= samples) & (samples <= 1))

    def test_samples_near_kernel_centres(self):
        rng = np.random.default_rng(1)
        kde = DensityEstimate(np.full((5, 2), 0.5))
        samples = kde.sample(100, rng)
        assert np.all(np.abs(samples - 0.5) < 0.3)


class TestTPESampler:
    def test_validation(self):
        with pytest.raises(ValueError):
            TPESampler(2, gamma=0.0)
        with pytest.raises(ValueError):
            TPESampler(2, gamma=1.0)

    @pytest.mark.parametrize("min_points", [0, -1])
    def test_min_points_below_one_is_rejected(self, min_points):
        """With no point required the model was 'ready' empty and died in propose."""
        with pytest.raises(ValueError, match="min_points"):
            TPESampler(2, min_points=min_points)

    def test_min_points_one_proposes_from_the_model(self, rng):
        sampler = TPESampler(2, min_points=1, random_fraction=0.0)
        sampler.observe(np.array([0.2, 0.2]), 0.0)
        assert not sampler.model_ready()
        sampler.observe(np.array([0.8, 0.8]), 1.0)
        assert sampler.model_ready()
        assert sampler.propose(rng).shape == (2,)
        assert sampler.last_proposal_was_model

    def test_uniform_before_ready(self, rng):
        sampler = TPESampler(3, min_points=5)
        assert not sampler.model_ready()
        x = sampler.propose(rng)
        assert x.shape == (3,)
        assert np.all((0 <= x) & (x <= 1))

    def test_model_ready_threshold(self, rng):
        sampler = TPESampler(2, min_points=3, gamma=0.2)
        for i in range(5):
            sampler.observe(rng.random(2), float(i))
        assert not sampler.model_ready()  # needs n_good + min_points = 6
        sampler.observe(rng.random(2), 5.0)
        assert sampler.model_ready()

    def test_proposals_concentrate_on_good_region(self, rng):
        """Good points near 0.1, bad near 0.9: proposals should go low."""
        sampler = TPESampler(1, min_points=3, random_fraction=0.0, gamma=0.3)
        for _ in range(30):
            x = rng.random()
            sampler.observe(np.array([x]), abs(x - 0.1))
        proposals = np.array([sampler.propose(rng)[0] for _ in range(40)])
        assert np.mean(proposals) < 0.4

    def test_nonfinite_losses_counted_as_bad(self, rng):
        sampler = TPESampler(1, min_points=2, random_fraction=0.0, gamma=0.3)
        for x in np.linspace(0.0, 0.4, 8):
            sampler.observe(np.array([x]), x)
        for x in np.linspace(0.6, 1.0, 8):
            sampler.observe(np.array([x]), np.inf)
        proposals = np.array([sampler.propose(rng)[0] for _ in range(30)])
        assert np.mean(proposals) < 0.5  # inf region avoided

    def test_random_fraction_one_is_uniform(self, rng):
        sampler = TPESampler(1, random_fraction=1.0, min_points=1)
        for i in range(20):
            sampler.observe(np.array([0.0]), 0.0)
        proposals = np.array([sampler.propose(rng)[0] for _ in range(200)])
        assert proposals.mean() == pytest.approx(0.5, abs=0.15)
