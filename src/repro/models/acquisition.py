"""Acquisition functions and constant-liar batching.

Expected improvement drives the Vizier and Fabolas stand-ins.  For parallel
proposals we implement the constant-liar heuristic [Ginsbourger et al., 2010]
the paper cites as the standard way to parallelise Bayesian optimisation:
pending points are imputed with a fixed "lie" (the current best observation)
and the model is refit so later proposals in the batch spread out.
"""

from __future__ import annotations

import numpy as np

from .gp import GaussianProcess

__all__ = ["expected_improvement", "ucb", "propose_constant_liar"]


def expected_improvement(
    mean: np.ndarray, std: np.ndarray, best: float, xi: float = 0.0
) -> np.ndarray:
    """EI for *minimisation*: ``E[max(best - xi - Y, 0)]`` under N(mean, std^2)."""
    from scipy.special import ndtr

    mean = np.asarray(mean, dtype=float)
    std = np.maximum(np.asarray(std, dtype=float), 1e-12)
    gap = best - xi - mean
    z = gap / std
    return gap * ndtr(z) + std * (np.exp(-(z**2) / 2.0) / np.sqrt(2 * np.pi))


def ucb(mean: np.ndarray, std: np.ndarray, beta: float = 2.0) -> np.ndarray:
    """Lower-confidence bound *utility* for minimisation (higher is better)."""
    return -(np.asarray(mean, dtype=float) - beta * np.asarray(std, dtype=float))


def propose_constant_liar(
    gp: GaussianProcess,
    x_obs: np.ndarray,
    y_obs: np.ndarray,
    candidates: np.ndarray,
    batch_size: int,
) -> list[int]:
    """Pick ``batch_size`` candidate indices via EI with constant-liar updates.

    After each pick the chosen point is appended to the observation set with
    the lie value (the best observed loss) and the GP is refit, so
    subsequent picks avoid clustering on the same optimum.  Returns indices
    into ``candidates``; fewer than ``batch_size`` if candidates run out.
    """
    x_obs = np.atleast_2d(np.asarray(x_obs, dtype=float))
    y_obs = np.asarray(y_obs, dtype=float).ravel()
    finite = y_obs[np.isfinite(y_obs)]
    lie_value = float(finite.min()) if len(finite) else 0.0
    chosen: list[int] = []
    remaining = list(range(len(candidates)))
    x_aug, y_aug = x_obs, y_obs
    for _ in range(min(batch_size, len(remaining))):
        gp.fit(x_aug, y_aug)
        best = float(np.min(y_aug[np.isfinite(y_aug)])) if np.isfinite(y_aug).any() else 0.0
        mean, std = gp.predict(candidates[remaining])
        scores = expected_improvement(mean, std, best)
        pick_pos = int(np.argmax(scores))
        pick = remaining.pop(pick_pos)
        chosen.append(pick)
        x_aug = np.vstack([x_aug, candidates[pick][None, :]])
        y_aug = np.append(y_aug, lie_value)
    return chosen
