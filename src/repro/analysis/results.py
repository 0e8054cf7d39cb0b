"""Run results and multi-seed aggregation.

The paper's figures plot, per tuning method, the average incumbent quality
across 5-10 experiment trials with quartile or min/max bands.  This module
holds one searcher run (:class:`RunRecord`) and aggregates many of them on a
common time grid (:class:`AggregateCurve`), exactly the series the figure
benches print.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..backend.trial_runner import BackendResult
from .tracker import IncumbentTrace

__all__ = ["RunRecord", "AggregateCurve", "aggregate"]


@dataclass
class RunRecord:
    """One (method, seed) search run and its incumbent trace."""

    method: str
    seed: int
    trace: IncumbentTrace
    backend: BackendResult | None = None

    @property
    def final_value(self) -> float:
        return self.trace.final


@dataclass
class AggregateCurve:
    """Mean/band statistics of several traces on a common grid."""

    method: str
    grid: np.ndarray
    mean: np.ndarray
    lo: np.ndarray  # lower band (quartile or min)
    hi: np.ndarray  # upper band (quartile or max)
    finals: list[float] = field(default_factory=list)

    def time_to_reach(self, threshold: float) -> float | None:
        """First grid time at which the *mean* curve crosses ``threshold``."""
        below = np.nonzero(self.mean <= threshold)[0]
        if len(below) == 0:
            return None
        return float(self.grid[below[0]])

    @property
    def final_mean(self) -> float:
        return float(self.mean[-1])


def aggregate(
    method: str,
    records: list[RunRecord],
    grid: np.ndarray,
    *,
    band: str = "minmax",
) -> AggregateCurve:
    """Resample each record on ``grid`` and compute mean plus spread band.

    ``band`` is ``"minmax"`` (Figures 4-6, 9) or ``"quartile"`` (Figure 3).
    Infinite values (before a method's first report) are carried through the
    mean as the worst finite value seen on that grid point across records,
    so early-time averages stay meaningful.
    """
    if not records:
        raise ValueError("aggregate requires at least one record")
    if band not in ("minmax", "quartile"):
        raise ValueError(f"unknown band {band!r}")
    curves = np.stack([r.trace.resample(grid) for r in records])
    # Replace inf (not-yet-reported) by each column's worst finite value;
    # columns where nothing has reported yet stay at inf.
    finite_mask = np.isfinite(curves)
    lowered = np.where(finite_mask, curves, -np.inf)
    col_worst = lowered.max(axis=0)
    filled = np.where(finite_mask, curves, col_worst[None, :])
    filled[:, ~np.isfinite(col_worst)] = np.inf
    mean = filled.mean(axis=0)
    if band == "minmax":
        lo = filled.min(axis=0)
        hi = filled.max(axis=0)
    else:
        # Quartiles of the columns someone has reported in; the others stay
        # inf, as under "minmax" (interpolating inf - inf would give nan).
        lo, hi = np.full((2, len(mean)), np.inf)
        reported = np.isfinite(col_worst)
        lo[reported], hi[reported] = np.percentile(filled[:, reported], [25, 75], axis=0)
    return AggregateCurve(
        method=method,
        grid=np.asarray(grid, dtype=float),
        mean=mean,
        lo=lo,
        hi=hi,
        finals=[r.final_value for r in records],
    )
