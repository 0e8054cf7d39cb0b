"""Scheduler factories configured the way the paper's experiments were.

Appendix A.3 fixes the settings shared by Sections 4.1 and 4.2: SHA and
BOHB with ``n = 256, eta = 4, s = 0, r = R/256``; Hyperband looping five
brackets; ASHA/async-Hyperband with the same geometry; PBT with population
25, perturbation interval 1000 iterations, truncation fraction 20%.  Every
method is a row of the scheduler registry (plus, for the combinations, a
searcher name), so this module holds no constructor call of its own:
:func:`standard_methods` names the rows and fills their keyword arguments
from a :class:`MethodSettings`, and :func:`method_factory` turns a row into
the ``(objective, rng) -> Scheduler`` factory every figure bench runs.
"""

from __future__ import annotations

from typing import Any, Iterable

import numpy as np

from ..core.registry import build_scheduler
from ..core.scheduler import Scheduler
from ..objectives.base import Objective
from ..searchers.registry import build_searcher
from .runner import SchedulerFactory

__all__ = ["MethodSettings", "method_factory", "standard_methods"]


class MethodSettings:
    """Geometry + PBT settings for one benchmark's experiments."""

    def __init__(
        self,
        *,
        eta: int,
        min_resource: float,
        max_resource: float,
        n: int = 256,
        early_stopping_rate: int = 0,
        hyperband_brackets: int | None = None,
        pbt_interval: float | None = None,
        pbt_population: int = 25,
        pbt_frozen: frozenset[str] = frozenset(),
        grow_brackets: bool = False,
    ):
        self.eta = eta
        self.min_resource = min_resource
        self.max_resource = max_resource
        self.n = n
        self.early_stopping_rate = early_stopping_rate
        self.hyperband_brackets = hyperband_brackets
        self.pbt_interval = pbt_interval if pbt_interval is not None else max_resource / 30.0
        self.pbt_population = pbt_population
        self.pbt_frozen = pbt_frozen
        self.grow_brackets = grow_brackets


def method_factory(
    name: str,
    *,
    min_resource: float,
    max_resource: float,
    eta: int,
    kwargs: dict[str, Any] | None = None,
    searcher: str | None = None,
) -> SchedulerFactory:
    """An ``(objective, rng) -> Scheduler`` factory for one registry row."""

    def factory(objective: Objective, rng: np.random.Generator) -> Scheduler:
        return build_scheduler(
            name,
            objective.space,
            rng,
            min_resource=min_resource,
            max_resource=max_resource,
            eta=eta,
            kwargs=dict(kwargs or {}),
            searcher=None if searcher is None else build_searcher(searcher),
        )

    return factory


def standard_methods(
    settings: MethodSettings, include: Iterable[str] | None = None
) -> dict[str, SchedulerFactory]:
    """The paper's method suite as a name -> factory mapping.

    Names follow the figure legends: ``Random``, ``SHA``, ``Hyperband``,
    ``PBT``, ``ASHA``, ``Hyperband (async)``, ``BOHB`` — plus the
    scheduler x searcher combinations the conclusion gestures at:
    ``ASHA (KDE)`` (asynchronous BOHB) and ``ASHA (GP)`` (MOBSTER-family).
    ``docs/searchers.md`` tabulates what each name resolves to.
    """
    s = settings
    sha = {
        "n": s.n,
        "early_stopping_rate": s.early_stopping_rate,
        "grow_brackets": s.grow_brackets,
    }
    asha = {"early_stopping_rate": s.early_stopping_rate}
    pbt = {"interval": s.pbt_interval, "population_size": s.pbt_population, "frozen": s.pbt_frozen}
    # legend -> (scheduler registry name, its kwargs, searcher name)
    methods: dict[str, tuple[str, dict[str, Any], str | None]] = {
        "Random": ("random", {}, None),
        "SHA": ("sha", sha, None),
        "Hyperband": ("hyperband", {}, None),
        "PBT": ("pbt", pbt, None),
        "ASHA": ("asha", asha, None),
        "ASHA (KDE)": ("asha", asha, "kde"),
        "ASHA (GP)": ("asha", asha, "gp"),
        "Hyperband (async)": ("async_hyperband", {"brackets": s.hyperband_brackets}, None),
        "BOHB": ("bohb", sha, None),
    }
    names = list(methods) if include is None else list(include)
    missing = set(names) - set(methods)
    if missing:
        raise KeyError(f"unknown methods requested: {sorted(missing)}")
    factories = {}
    for legend in names:
        name, kwargs, searcher = methods[legend]
        factories[legend] = method_factory(
            name,
            min_resource=s.min_resource,
            max_resource=s.max_resource,
            eta=s.eta,
            kwargs=kwargs,
            searcher=searcher,
        )
    return factories
