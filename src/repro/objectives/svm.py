"""Real kernel-classifier objective with *dataset size* as the resource.

Appendix A.2 benchmarks Hyperband and Fabolas on tuning an SVM where "the
allocated resource is number of training datapoints".  We cannot ship the
proprietary 'vehicle' dataset or MNIST, so this module builds the closest
synthetic equivalent that exercises the same code path (see DESIGN.md):

* a fixed synthetic binary classification dataset drawn from overlapping
  Gaussian mixtures, with a difficulty knob calibrated so the reproducible
  Bayes-ish error floors match Figure 9's y-ranges ('vehicle' ~ 0.25,
  'mnist' ~ 0.02);
* a genuinely-trained model: random Fourier features (bandwidth = the
  ``gamma`` hyperparameter) followed by ridge-regularised least squares
  (regularisation ``1/C``), i.e. an approximate kernel SVM fit in closed
  form — real training, deterministic, and fast enough for tuning loops;
* training on the first ``resource`` datapoints, evaluating 0/1 error on a
  held-out validation set — so more data genuinely reduces error with
  diminishing returns, the structure Fabolas exploits.
"""

from __future__ import annotations

import math
from typing import Any

import numpy as np

from ..searchspace import Config, LogUniform, SearchSpace
from .base import Objective

__all__ = ["SVMObjective", "space", "make_objective", "DATASETS"]

#: Input dimensionality and random-Fourier-feature width.
_NUM_FEATURES = 10
_RFF_DIM = 96

#: Difficulty presets: (class separation, label noise, target floor).
DATASETS = {
    "vehicle": {"separation": 2.0, "label_noise": 0.15, "n_informative": 6},
    "mnist": {"separation": 3.5, "label_noise": 0.005, "n_informative": 10},
}


def space() -> SearchSpace:
    """The SVM search space of Klein et al. [2017]: C and gamma, log scale."""
    return SearchSpace(
        {
            "C": LogUniform(math.exp(-10.0), math.exp(10.0)),
            "gamma": LogUniform(math.exp(-10.0), math.exp(3.0)),
        }
    )


class SVMObjective(Objective):
    """Approximate-kernel classifier trained on data subsets.

    Parameters
    ----------
    dataset:
        ``"vehicle"`` (hard, error floor ~ 0.25) or ``"mnist"`` (easy,
        floor ~ 0.02).
    max_train:
        Full training-set size (= ``R``).
    num_val:
        Held-out validation points.
    seed:
        Dataset seed; vary across experiment trials for fresh splits.
    """

    def __init__(
        self,
        dataset: str = "vehicle",
        *,
        max_train: int = 4096,
        num_val: int = 1024,
        seed: int = 0,
    ):
        if dataset not in DATASETS:
            raise ValueError(f"unknown dataset {dataset!r}; options: {sorted(DATASETS)}")
        self.space = space()
        self.max_resource = float(max_train)
        self.dataset = dataset
        preset = DATASETS[dataset]
        rng = np.random.default_rng(seed)
        n = max_train + num_val
        d = _NUM_FEATURES
        informative = preset["n_informative"]
        # Two anisotropic Gaussian clusters, informative dims separated.
        labels = rng.integers(0, 2, size=n)
        centers = np.zeros((2, d))
        centers[1, :informative] = preset["separation"] / math.sqrt(informative)
        scales = rng.uniform(0.7, 1.5, size=d)
        x = centers[labels] + rng.normal(0.0, 1.0, size=(n, d)) * scales
        flip = rng.random(n) < preset["label_noise"]
        labels = np.where(flip, 1 - labels, labels)
        self._x_train, self._y_train = x[:max_train], labels[:max_train]
        self._x_val, self._y_val = x[max_train:], labels[max_train:]
        # Fixed RFF directions; the gamma hyperparameter rescales them.
        self._w = rng.normal(0.0, 1.0, size=(d, _RFF_DIM))
        self._b = rng.uniform(0.0, 2 * math.pi, size=_RFF_DIM)

    # ---------------------------------------------------------- Objective

    def initial_state(self, config: Config) -> Any:
        return None  # subset training always refits from scratch

    def _features(self, x: np.ndarray, gamma: float) -> np.ndarray:
        proj = x @ (self._w * math.sqrt(2.0 * gamma)) + self._b
        return math.sqrt(2.0 / _RFF_DIM) * np.cos(proj)

    def train(
        self, state: Any, config: Config, from_resource: float, to_resource: float
    ) -> tuple[Any, float]:
        n = int(min(max(to_resource, 2.0), self.max_resource))
        phi = self._features(self._x_train[:n], config["gamma"])
        y = 2.0 * self._y_train[:n] - 1.0
        # Constant (not per-sample) ridge strength: small subsets overfit the
        # random-feature model and large ones do not, which is what gives the
        # dataset-size resource its diminishing-returns structure.
        lam = max(1.0 / config["C"], 1e-10)
        gram = phi.T @ phi
        gram[np.diag_indices_from(gram)] += lam
        weights = np.linalg.solve(gram, phi.T @ y)
        scores = self._features(self._x_val, config["gamma"]) @ weights
        predictions = (scores > 0).astype(int)
        error = float(np.mean(predictions != self._y_val))
        return None, error

    def cost(self, config: Config, from_resource: float, to_resource: float) -> float:
        """Subset training is not incremental: cost follows the *target* size."""
        return max(to_resource, 1.0)


def make_objective(dataset: str = "vehicle", seed: int = 0, **kwargs) -> SVMObjective:
    """The Appendix A.2 SVM benchmark on a synthetic stand-in dataset."""
    return SVMObjective(dataset, seed=seed, **kwargs)
