"""The KDE model as it stood before its fit was cached, verbatim: the differential oracle.

``DensityEstimate``, ``TPESampler`` and ``_nan_last`` copied from
``models/kde.py`` at commit 3976495, which restacks every observation and
refits both densities on every model proposal.  ``test_kde_cache.py`` holds
the cached sampler to these on proposal bits, proposal origin and generator
state.
"""

from __future__ import annotations

import numpy as np

_MIN_BANDWIDTH = 1e-3


class DensityEstimate:
    """Product-Gaussian KDE on ``[0, 1]^d`` with Scott's-rule bandwidths."""

    def __init__(self, points: np.ndarray):
        points = np.atleast_2d(np.asarray(points, dtype=float))
        if len(points) == 0:
            raise ValueError("DensityEstimate requires at least one point")
        self.points = points
        n, d = points.shape
        scott = n ** (-1.0 / (d + 4))
        spread = np.maximum(points.std(axis=0), _MIN_BANDWIDTH)
        self.bandwidths = np.maximum(scott * spread, _MIN_BANDWIDTH)

    def pdf(self, x: np.ndarray) -> np.ndarray:
        """Density at the rows of ``x`` (unnormalised boundary handling)."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        # (m, n, d) standardised distances, fully vectorised.
        z = (x[:, None, :] - self.points[None, :, :]) / self.bandwidths[None, None, :]
        log_kernel = -0.5 * np.sum(z**2, axis=2) - np.sum(
            np.log(self.bandwidths * np.sqrt(2 * np.pi))
        )
        # log-mean-exp over the n kernels for numerical stability.
        peak = log_kernel.max(axis=1, keepdims=True)
        return np.exp(peak.ravel()) * np.mean(np.exp(log_kernel - peak), axis=1)

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Draw ``n`` points: pick a kernel centre, add bandwidth noise, clip."""
        idx = rng.integers(len(self.points), size=n)
        noise = rng.normal(0.0, 1.0, size=(n, self.points.shape[1])) * self.bandwidths
        return np.clip(self.points[idx] + noise, 0.0, 1.0)


class TPESampler:
    """Good/bad-KDE proposal scheme over the unit cube.

    Parameters
    ----------
    dim:
        Dimensionality of the encoded space.
    gamma:
        Fraction of observations labelled "good" (BOHB default 0.15).
    num_candidates:
        Samples drawn from ``l`` per proposal (BOHB default 24).
    random_fraction:
        Probability of falling back to a uniform sample (BOHB default 1/3),
        which keeps the method consistent and exploration alive.
    min_points:
        Minimum observations before the model activates; below this the
        sampler is uniform.  BOHB uses ``dim + 1`` per class.
    """

    def __init__(
        self,
        dim: int,
        *,
        gamma: float = 0.15,
        num_candidates: int = 24,
        random_fraction: float = 1.0 / 3.0,
        min_points: int | None = None,
    ):
        if not 0 < gamma < 1:
            raise ValueError(f"gamma must be in (0, 1), got {gamma}")
        self.dim = dim
        self.gamma = gamma
        self.num_candidates = num_candidates
        self.random_fraction = random_fraction
        self.min_points = min_points if min_points is not None else dim + 1
        self._x: list[np.ndarray] = []
        self._y: list[float] = []
        #: Whether the most recent :meth:`propose` used the KDE ratio (True)
        #: or fell back to a uniform draw (False) — the proposal-origin tag.
        self.last_proposal_was_model = False

    def observe(self, x: np.ndarray, loss: float) -> None:
        """Record one (encoded config, loss) observation."""
        self._x.append(np.asarray(x, dtype=float))
        # Non-finite losses are treated as arbitrarily bad but kept: they
        # teach g(x) where the divergent region is.
        self._y.append(float(loss) if np.isfinite(loss) else np.inf)

    @property
    def num_observations(self) -> int:
        return len(self._y)

    def model_ready(self) -> bool:
        n_good = max(self.min_points, int(np.ceil(self.gamma * len(self._y))))
        return len(self._y) >= n_good + self.min_points

    def propose(self, rng: np.random.Generator) -> np.ndarray:
        """Propose one point in the unit cube."""
        if not self.model_ready() or rng.random() < self.random_fraction:
            self.last_proposal_was_model = False
            return rng.random(self.dim)
        y = np.asarray(self._y)
        x = np.stack(self._x)
        order = np.argsort(_nan_last(y), kind="stable")
        n_good = max(self.min_points, int(np.ceil(self.gamma * len(y))))
        good_idx = order[:n_good]
        bad_idx = order[n_good:]
        # Cap KDE support sizes for speed on long runs: keep the very best
        # "good" points and a uniform subsample of the "bad" ones.
        if len(good_idx) > 256:
            good_idx = good_idx[:256]
        if len(bad_idx) > 256:
            bad_idx = bad_idx[rng.choice(len(bad_idx), size=256, replace=False)]
        good = DensityEstimate(x[good_idx])
        bad = DensityEstimate(x[bad_idx])
        candidates = good.sample(self.num_candidates, rng)
        ratio = good.pdf(candidates) / np.maximum(bad.pdf(candidates), 1e-32)
        self.last_proposal_was_model = True
        return candidates[int(np.argmax(ratio))]


def _nan_last(y: np.ndarray) -> np.ndarray:
    """Map inf/nan to +inf so they sort to the 'bad' side."""
    out = y.copy()
    out[~np.isfinite(out)] = np.inf
    return out
