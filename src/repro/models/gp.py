"""Gaussian-process regression built from scratch on numpy/scipy.

This is the substrate behind the Vizier stand-in (GP-EI over configurations)
and the Fabolas stand-in (GP over configuration x dataset-fraction).  It
implements exact GP regression with a Cholesky factorisation, observation
noise, output normalisation, and a small grid search over kernel
hyperparameters by marginal likelihood — deliberately simple, numerically
careful, and fast enough to sit inside simulated tuning loops with hundreds
of observations.
"""

from __future__ import annotations

import numpy as np

from .kernels import Kernel, Matern52

__all__ = ["GaussianProcess"]

_JITTER = 1e-8


class GaussianProcess:
    """Exact GP regression with marginal-likelihood grid tuning.

    Parameters
    ----------
    kernel:
        Prior covariance; defaults to Matern-5/2.
    noise:
        Observation noise variance (on the *normalised* target scale).

    Targets are standardised to zero mean / unit variance before fitting;
    predictions are transformed back.
    """

    def __init__(self, kernel: Kernel | None = None, noise: float = 1e-4):
        if noise <= 0:
            raise ValueError(f"noise must be positive, got {noise}")
        self.kernel = kernel or Matern52()
        self.noise = noise
        self._x: np.ndarray | None = None
        self._alpha: np.ndarray | None = None
        self._chol = None
        self._y_mean = 0.0
        self._y_std = 1.0

    # ------------------------------------------------------------ fitting

    def fit(self, x: np.ndarray, y: np.ndarray) -> "GaussianProcess":
        """Condition the GP on observations ``(x, y)``.

        ``x`` is ``(n, d)`` (unit-cube encodings), ``y`` is ``(n,)``.
        Non-finite targets are clamped to the largest finite observation —
        the guard Section 4.3 describes model-based methods needing against
        heavy-tailed losses (we reproduce both the capped and uncapped
        behaviour in the Figure 5 bench).
        """
        from scipy.linalg import cho_factor, cho_solve

        x = np.atleast_2d(np.asarray(x, dtype=float))
        y = np.asarray(y, dtype=float).ravel()
        if len(x) != len(y):
            raise ValueError(f"x has {len(x)} rows but y has {len(y)} entries")
        if len(y) == 0:
            raise ValueError("cannot fit a GP to zero observations")
        finite = np.isfinite(y)
        if not finite.any():
            y = np.zeros_like(y)
        elif not finite.all():
            y = np.where(finite, y, y[finite].max())
        self._y_mean = float(y.mean())
        std = float(y.std())
        self._y_std = std if std > 0 else 1.0
        z = (y - self._y_mean) / self._y_std
        gram = self.kernel(x, x)
        gram[np.diag_indices_from(gram)] += self.noise + _JITTER
        self._chol = cho_factor(gram, lower=True)
        self._alpha = cho_solve(self._chol, z)
        self._x = x
        self._z = z
        return self

    def fit_tuned(
        self,
        x: np.ndarray,
        y: np.ndarray,
        length_scales: tuple[float, ...] = (0.1, 0.2, 0.4, 0.8),
        variances: tuple[float, ...] = (0.5, 1.0, 2.0),
    ) -> "GaussianProcess":
        """Fit with the kernel hyperparameters maximising marginal likelihood
        over a small grid — the pragmatic stand-in for gradient-based
        type-II maximum likelihood."""
        best_ll = -np.inf
        best_kernel = self.kernel
        for ls in length_scales:
            for var in variances:
                self.kernel = best_kernel.with_params(ls, var)
                try:
                    self.fit(x, y)
                except np.linalg.LinAlgError:
                    continue
                ll = self.log_marginal_likelihood()
                if ll > best_ll:
                    best_ll = ll
                    best_kernel = self.kernel
        self.kernel = best_kernel
        return self.fit(x, y)

    def log_marginal_likelihood(self) -> float:
        """Log evidence of the current fit (normalised-target scale)."""
        self._require_fit()
        n = len(self._z)
        log_det = 2.0 * np.sum(np.log(np.diag(self._chol[0])))
        return float(-0.5 * self._z @ self._alpha - 0.5 * log_det - 0.5 * n * np.log(2 * np.pi))

    # --------------------------------------------------------- prediction

    def predict(self, x_new: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Posterior mean and standard deviation at the rows of ``x_new``."""
        from scipy.linalg import cho_solve

        self._require_fit()
        x_new = np.atleast_2d(np.asarray(x_new, dtype=float))
        k_star = self.kernel(self._x, x_new)  # (n, m)
        mean = k_star.T @ self._alpha
        v = cho_solve(self._chol, k_star)
        prior_var = np.diag(self.kernel(x_new, x_new)).copy()
        var = np.maximum(prior_var - np.sum(k_star * v, axis=0), _JITTER)
        return (
            mean * self._y_std + self._y_mean,
            np.sqrt(var) * self._y_std,
        )

    def _require_fit(self) -> None:
        if self._x is None:
            raise RuntimeError("GaussianProcess must be fit before use")

    @property
    def num_observations(self) -> int:
        return 0 if self._x is None else len(self._x)
