"""Tests for the high-level tune() facade."""

from __future__ import annotations

import pytest

from repro import FunctionObjective, tune
from repro.searchspace import SearchSpace, Uniform

SPACE = SearchSpace({"x": Uniform(0.0, 1.0)})


def quadratic_train(config, state, from_resource, to_resource):
    """Resumable toy: loss approaches (x - 0.3)^2 as resource grows."""
    target = (config["x"] - 0.3) ** 2
    progress = min(to_resource / 16.0, 1.0)
    return None, 1.0 * (1 - progress) + target * progress


class TestFunctionObjective:
    def test_wraps_callable(self):
        obj = FunctionObjective(quadratic_train, SPACE, 16.0)
        assert obj.evaluate({"x": 0.3}, 16.0) == pytest.approx(0.0)
        assert obj.cost({"x": 0.3}, 0.0, 8.0) == 8.0

    def test_custom_cost(self):
        obj = FunctionObjective(
            quadratic_train, SPACE, 16.0, cost_fn=lambda c, a, b: 3.0 * (b - a)
        )
        assert obj.cost({"x": 0.1}, 2.0, 4.0) == 6.0


@pytest.mark.parametrize(
    "scheduler",
    ["asha", "sha", "hyperband", "async_hyperband", "bohb", "random", "pbt", "gp"],
)
def test_every_scheduler_name_runs(scheduler):
    result = tune(
        quadratic_train,
        SPACE,
        max_resource=16.0,
        scheduler=scheduler,
        num_workers=2,
        time_limit=2000.0,
        seed=1,
    )
    assert result.best_config is not None
    assert result.best_loss is not None
    assert result.num_trials > 0


def test_asha_finds_the_optimum():
    result = tune(
        quadratic_train, SPACE, max_resource=16.0, num_workers=4, time_limit=5000.0
    )
    assert abs(result.best_config["x"] - 0.3) < 0.1
    assert result.best_loss < 0.02


def test_unknown_names_rejected():
    with pytest.raises(KeyError) as excinfo:
        tune(quadratic_train, SPACE, max_resource=16.0, scheduler="magic")
    # The error lists both axes of choice.
    assert "scheduler options" in str(excinfo.value)
    assert "searcher options" in str(excinfo.value)
    with pytest.raises(KeyError):
        tune(quadratic_train, SPACE, max_resource=16.0, backend="quantum")
    with pytest.raises(KeyError):
        tune(quadratic_train, SPACE, max_resource=16.0, searcher="magic")


def test_vizier_aliases_gp():
    from repro.core import RandomSearch
    from repro.searchers import GPEISearcher

    result = tune(
        quadratic_train,
        SPACE,
        max_resource=16.0,
        scheduler="vizier",
        scheduler_kwargs={"max_trials": 8},
        time_limit=1e6,
    )
    # The Vizier stand-in is full-budget search proposing from the GP.
    assert type(result.scheduler) is RandomSearch
    assert type(result.scheduler.searcher) is GPEISearcher
    assert result.num_trials == 8


def test_prebuilt_scheduler_instance_accepted():
    import numpy as np

    from repro.core import RandomSearch

    sched = RandomSearch(SPACE, np.random.default_rng(3), max_resource=16.0, max_trials=6)
    result = tune(quadratic_train, SPACE, max_resource=16.0, scheduler=sched, time_limit=1e6)
    assert result.scheduler is sched
    assert result.num_trials == 6


def test_prebuilt_scheduler_rejects_extra_config():
    import numpy as np

    from repro.core import RandomSearch

    sched = RandomSearch(SPACE, np.random.default_rng(3), max_resource=16.0, max_trials=6)
    with pytest.raises(ValueError):
        tune(
            quadratic_train,
            SPACE,
            max_resource=16.0,
            scheduler=sched,
            scheduler_kwargs={"max_trials": 2},
        )
    with pytest.raises(ValueError):
        tune(quadratic_train, SPACE, max_resource=16.0, scheduler=sched, searcher="kde")


@pytest.mark.parametrize("searcher", ["random", "kde", "gp", "grid"])
@pytest.mark.parametrize("scheduler", ["asha", "sha", "random"])
def test_scheduler_searcher_combinations_run(scheduler, searcher):
    result = tune(
        quadratic_train,
        SPACE,
        max_resource=16.0,
        scheduler=scheduler,
        searcher=searcher,
        searcher_kwargs={"num_init": 4, "num_candidates": 16} if searcher == "gp" else None,
        num_workers=2,
        time_limit=1500.0,
        seed=2,
    )
    assert result.best_config is not None
    assert result.num_trials > 0


def test_hyperband_with_a_finite_searcher_terminates():
    """Regression: once the grid ran dry every fresh SHA bracket was born
    done, and ``Hyperband.next_job`` recursed through them until
    ``RecursionError``."""
    result = tune(
        quadratic_train,
        SPACE,
        max_resource=16.0,
        scheduler="hyperband",
        searcher="grid",
        searcher_kwargs={"points_per_dim": 20},  # bracket 0 holds 16: spills into bracket 1
        num_workers=2,
        time_limit=1e6,
    )
    assert result.scheduler.is_done()
    assert result.scheduler.next_job() is None
    proposed = sorted(t.config["x"] for t in result.scheduler.trials.values())
    assert proposed == pytest.approx([i / 19 for i in range(20)])  # each point exactly once
    assert result.scheduler.completed_brackets == 2


def test_searcher_on_threads_backend():
    result = tune(
        quadratic_train,
        SPACE,
        max_resource=16.0,
        scheduler="asha",
        searcher="kde",
        backend="threads",
        num_workers=2,
        time_limit=5.0,
        scheduler_kwargs={"max_trials": 20},
    )
    assert result.best_loss is not None


def test_kde_searcher_rejects_min_points_below_one():
    """``min_points=0`` used to crash the first model proposal mid-search."""
    with pytest.raises(ValueError, match="min_points"):
        tune(
            quadratic_train,
            SPACE,
            max_resource=16.0,
            searcher="kde",
            searcher_kwargs={"min_points": 0},
            num_workers=2,
            time_limit=2000.0,
        )


def test_bohb_rejects_searcher():
    with pytest.raises(ValueError, match="owns its own sampling"):
        tune(quadratic_train, SPACE, max_resource=16.0, scheduler="bohb", searcher="kde")


def test_origin_telemetry_and_model_hit_rate():
    """Explicit searchers stamp proposal origins; metrics derive the hit rate."""
    result = tune(
        quadratic_train,
        SPACE,
        max_resource=16.0,
        scheduler="asha",
        searcher="kde",
        searcher_kwargs={"random_fraction": 0.1},
        num_workers=2,
        time_limit=4000.0,
        seed=3,
        telemetry=True,
    )
    report = result.backend_result.telemetry
    tagged = {k: v for k, v in report.counters.items() if k.startswith("proposals.")}
    assert sum(tagged.values()) == result.num_trials
    assert "proposals.random_fallback" in tagged  # warm-up is always random
    hit_rate = report.model_hit_rate()
    assert 0.0 <= hit_rate <= 1.0
    if "proposals.model_based" in tagged:
        assert hit_rate > 0.0


def test_default_paths_emit_no_origin():
    """Legacy/default schedulers keep their telemetry streams origin-free."""
    result = tune(
        quadratic_train,
        SPACE,
        max_resource=16.0,
        scheduler="bohb",
        num_workers=2,
        time_limit=1000.0,
        telemetry=True,
    )
    report = result.backend_result.telemetry
    assert not any(k.startswith("proposals.") for k in report.counters)
    import math

    assert math.isnan(report.model_hit_rate())


def test_threads_backend():
    result = tune(
        quadratic_train,
        SPACE,
        max_resource=16.0,
        backend="threads",
        num_workers=2,
        time_limit=5.0,
        scheduler_kwargs={"max_trials": 30},
    )
    assert result.best_loss is not None
    assert result.best_loss < 0.3


def test_scheduler_kwargs_passed_through():
    result = tune(
        quadratic_train,
        SPACE,
        max_resource=16.0,
        scheduler="random",
        scheduler_kwargs={"max_trials": 5},
        time_limit=1e6,
    )
    assert result.num_trials == 5


def test_deterministic_given_seed():
    kwargs = dict(max_resource=16.0, num_workers=3, time_limit=1000.0, seed=42)
    a = tune(quadratic_train, SPACE, **kwargs)
    b = tune(quadratic_train, SPACE, **kwargs)
    assert a.best_config == b.best_config
    assert a.best_loss == b.best_loss


def test_retry_policy_passes_through_to_backend():
    from repro import RetryPolicy

    calls = {}

    def flaky_train(config, state, from_resource, to_resource):
        key = round(config["x"], 12)
        calls[key] = calls.get(key, 0) + 1
        if calls[key] == 1:
            raise RuntimeError("transient failure")
        return quadratic_train(config, state, from_resource, to_resource)

    result = tune(
        flaky_train,
        SPACE,
        max_resource=16.0,
        scheduler="random",
        scheduler_kwargs={"max_trials": 4},
        num_workers=2,
        time_limit=1e6,
        retry_policy=RetryPolicy(max_attempts=3),
    )
    # Every config's first training call crashed, yet all four finished.
    assert result.backend_result.jobs_retried == 4
    assert result.backend_result.trials_abandoned == 0
    assert len(result.backend_result.measurements) == 4
    assert result.best_config is not None
