"""Statistics over run records: CIs, time-to-target, pairwise wins.

The paper reports means with min/max or quartile bands; reviewers usually
want a little more.  This module adds the standard machinery for comparing
tuners across seeds:

* bootstrap confidence intervals for final quality and time-to-target;
* per-record time-to-target extraction (right-censored at the horizon);
* a pairwise win matrix (how often does method A end better than B on the
  same seed?), the simplest paired comparison when seeds are shared.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .results import RunRecord

__all__ = [
    "bootstrap_ci",
    "time_to_target",
    "times_to_target",
    "final_values",
    "win_matrix",
    "MethodSummary",
    "summarize",
]


def bootstrap_ci(
    values: list[float],
    *,
    confidence: float = 0.95,
    seed: int = 0,
) -> tuple[float, float]:
    """Percentile-bootstrap CI of the mean (2000 resamples); censored values enter as given."""
    if not values:
        raise ValueError("bootstrap_ci requires at least one value")
    arr = np.asarray(values, dtype=float)
    rng = np.random.default_rng(seed)
    idx = rng.integers(0, len(arr), size=(2000, len(arr)))
    means = arr[idx].mean(axis=1)
    alpha = (1.0 - confidence) / 2.0
    return float(np.quantile(means, alpha)), float(np.quantile(means, 1.0 - alpha))


def time_to_target(record: RunRecord, target: float, horizon: float) -> float:
    """First time the record's incumbent reaches ``target``, censored at
    ``horizon`` (the standard treatment for runs that never get there)."""
    for t, v in zip(record.trace.times, record.trace.values):
        if v <= target:
            return min(t, horizon)
    return horizon


def times_to_target(records: list[RunRecord], target: float, horizon: float) -> list[float]:
    return [time_to_target(r, target, horizon) for r in records]


def final_values(records: list[RunRecord]) -> list[float]:
    return [r.final_value for r in records]


def win_matrix(records_by_method: dict[str, list[RunRecord]]) -> dict[tuple[str, str], float]:
    """Fraction of shared seeds on which the row method ends strictly better.

    Only seeds present for *both* methods are compared (paired comparison).
    """
    finals = {
        method: {r.seed: r.final_value for r in records}
        for method, records in records_by_method.items()
    }
    out: dict[tuple[str, str], float] = {}
    for a, fa in finals.items():
        for b, fb in finals.items():
            if a == b:
                continue
            shared = sorted(set(fa) & set(fb))
            if not shared:
                out[(a, b)] = float("nan")
                continue
            wins = sum(1 for s in shared if fa[s] < fb[s])
            out[(a, b)] = wins / len(shared)
    return out


@dataclass(frozen=True)
class MethodSummary:
    """One method's headline numbers across seeds."""

    method: str
    num_seeds: int
    final_mean: float
    final_ci: tuple[float, float]
    time_to_target_mean: float | None
    time_to_target_ci: tuple[float, float] | None
    censored_runs: int


def summarize(
    records: list[RunRecord],
    *,
    target: float | None = None,
    horizon: float | None = None,
    confidence: float = 0.95,
) -> MethodSummary:
    """Headline statistics for one method's records."""
    if not records:
        raise ValueError("summarize requires at least one record")
    finals = final_values(records)
    method = records[0].method
    ttt_mean: float | None = None
    ttt_ci: tuple[float, float] | None = None
    censored = 0
    if target is not None:
        if horizon is None:
            raise ValueError("time-to-target needs a horizon for censoring")
        ttts = times_to_target(records, target, horizon)
        censored = sum(1 for t in ttts if t >= horizon)
        ttt_mean = float(np.mean(ttts))
        ttt_ci = bootstrap_ci(ttts, confidence=confidence)
    return MethodSummary(
        method=method,
        num_seeds=len(records),
        final_mean=float(np.mean(finals)),
        final_ci=bootstrap_ci(finals, confidence=confidence),
        time_to_target_mean=ttt_mean,
        time_to_target_ci=ttt_ci,
        censored_runs=censored,
    )
