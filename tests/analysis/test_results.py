"""Tests for multi-seed aggregation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis import IncumbentTrace, RunRecord, aggregate


def record(method: str, seed: int, points: list[tuple[float, float]]) -> RunRecord:
    trace = IncumbentTrace()
    for t, v in points:
        trace.append(t, v, trial_id=0)
    return RunRecord(method=method, seed=seed, trace=trace)


def test_requires_records():
    with pytest.raises(ValueError):
        aggregate("m", [], np.array([0.0, 1.0]))


def test_band_name_validated():
    with pytest.raises(ValueError):
        aggregate("m", [record("m", 0, [(0.0, 1.0)])], np.array([0.0]), band="sigma")


def test_mean_and_minmax():
    grid = np.array([0.0, 1.0, 2.0])
    records = [
        record("m", 0, [(0.0, 1.0), (2.0, 0.2)]),
        record("m", 1, [(0.0, 0.6)]),
    ]
    curve = aggregate("m", records, grid)
    np.testing.assert_allclose(curve.mean, [0.8, 0.8, 0.4])
    np.testing.assert_allclose(curve.lo, [0.6, 0.6, 0.2])
    np.testing.assert_allclose(curve.hi, [1.0, 1.0, 0.6])
    assert curve.finals == [0.2, 0.6]


def test_not_yet_reported_filled_with_column_worst():
    grid = np.array([0.0, 1.0])
    records = [
        record("m", 0, [(0.5, 0.4)]),
        record("m", 1, [(5.0, 0.1)]),  # nothing before the grid end
    ]
    curve = aggregate("m", records, grid)
    # At t=1: record 0 has 0.4, record 1 imputed with the column worst (0.4).
    assert curve.mean[1] == pytest.approx(0.4)
    # At t=0 nothing has reported anywhere: stays inf.
    assert np.isinf(curve.mean[0])


def test_quartile_band():
    grid = np.array([1.0])
    records = [record("m", i, [(0.0, float(i))]) for i in range(8)]
    curve = aggregate("m", records, grid, band="quartile")
    assert curve.lo[0] == pytest.approx(np.percentile(range(8), 25))
    assert curve.hi[0] == pytest.approx(np.percentile(range(8), 75))


@pytest.mark.parametrize("band", ["minmax", "quartile"])
def test_bands_are_inf_where_no_run_has_reported(band, recwarn):
    """The quartile bands used to come back nan (percentile of an all-inf
    column interpolates inf - inf), with a numpy RuntimeWarning."""
    grid = np.array([0.0, 1.0, 2.0])
    records = [record("m", 0, [(0.5, 0.4)]), record("m", 1, [(1.5, 0.2)])]
    curve = aggregate("m", records, grid, band=band)
    assert not recwarn.list
    assert np.isposinf([curve.lo[0], curve.mean[0], curve.hi[0]]).all()
    assert np.isfinite(np.r_[curve.lo[1:], curve.mean[1:], curve.hi[1:]]).all()
    assert curve.lo[2] == pytest.approx({"minmax": 0.2, "quartile": 0.25}[band])


def test_time_to_reach():
    grid = np.linspace(0.0, 10.0, 11)
    curve = aggregate("m", [record("m", 0, [(0.0, 1.0), (4.0, 0.3)])], grid)
    assert curve.time_to_reach(0.5) == 4.0
    assert curve.time_to_reach(0.1) is None
    assert curve.final_mean == pytest.approx(0.3)
