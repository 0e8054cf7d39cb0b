"""Name -> searcher factory registry, mirroring ``tune``'s ``SCHEDULERS``.

Kept beside the searchers (rather than in :mod:`repro.tune`) so lower
layers — experiment factories, benchmarks, tests — can resolve searcher
names without importing the high-level API.
"""

from __future__ import annotations

from typing import Any

from .base import Searcher
from .gp import GPEISearcher
from .grid import GridSearcher
from .kde import KDESearcher
from .random import RandomSearcher

__all__ = ["SEARCHERS", "build_searcher"]

_CLASSES: dict[str, type[Searcher]] = {
    "random": RandomSearcher,
    "kde": KDESearcher,
    "gp": GPEISearcher,
    "grid": GridSearcher,
}

#: Searcher names accepted by :func:`repro.tune.tune` and :func:`build_searcher`.
SEARCHERS = tuple(_CLASSES)


def build_searcher(searcher: str | Searcher, kwargs: dict[str, Any] | None = None) -> Searcher:
    """Resolve a searcher name (or pass an instance through).

    Parameters
    ----------
    searcher:
        One of :data:`SEARCHERS`, or an already-constructed
        :class:`~repro.searchers.base.Searcher` (returned as-is; ``kwargs``
        must then be empty).
    kwargs:
        Forwarded to the searcher's constructor.
    """
    if isinstance(searcher, Searcher):
        if kwargs:
            raise ValueError(
                "searcher_kwargs cannot be combined with an already-constructed "
                f"searcher instance ({type(searcher).__name__})"
            )
        return searcher
    if searcher not in _CLASSES:
        raise KeyError(f"unknown searcher {searcher!r}; options: {sorted(SEARCHERS)}")
    return _CLASSES[searcher](**(kwargs or {}))
