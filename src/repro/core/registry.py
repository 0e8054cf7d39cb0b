"""The scheduler registry: a method is a promotion rule x a searcher.

One table maps the names accepted by :func:`repro.tune.tune` (and recorded
in study journals) to what each one *is*: the
:class:`~repro.core.scheduler.Scheduler` class deciding promotion and
resource allocation, and — for the paper's model-based comparators — the
searcher it proposes from.  ``"bohb"`` is synchronous SHA proposing from the
KDE searcher (Section 4.1), ``"gp"`` full-budget search proposing from the
GP-EI searcher (the Vizier stand-in of Section 4.3); neither has a class of
its own.  ``tune``, the experiment method suite and
:meth:`repro.study.Study.resume` (from the name in a journal header) all
construct through :func:`build_scheduler`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from ..searchers.base import Searcher
from ..searchers.registry import SEARCHERS, build_searcher
from ..searchspace import SearchSpace
from .asha import ASHA
from .async_hyperband import AsyncHyperband
from .hyperband import Hyperband
from .pbt import PBT
from .random_search import RandomSearch
from .scheduler import Scheduler
from .sha import SynchronousSHA

__all__ = ["SCHEDULERS", "build_scheduler", "default_bracket_size"]


@dataclass(frozen=True)
class _Method:
    """One registry row."""

    #: The promotion rule: the scheduler class the name constructs.
    rule: Callable[..., Scheduler]
    #: Whether the rule takes ``min_resource``/``eta`` besides ``max_resource``.
    rungs: bool = True
    #: Default searcher name; ``None`` samples uniformly from the space.
    searcher: str | None = None
    #: The ``scheduler_kwargs`` that are really the default searcher's.
    searcher_kwargs: tuple[str, ...] = ()
    #: Whether a caller may attach a searcher of their own.
    takes_searcher: bool = True


_METHODS: dict[str, _Method] = {
    "asha": _Method(ASHA),
    "sha": _Method(SynchronousSHA),
    "hyperband": _Method(Hyperband),
    "async_hyperband": _Method(AsyncHyperband),
    "bohb": _Method(
        SynchronousSHA,
        searcher="kde",
        searcher_kwargs=("gamma", "num_candidates", "random_fraction"),
        takes_searcher=False,
    ),
    "random": _Method(RandomSearch, rungs=False),
    "pbt": _Method(PBT, rungs=False, takes_searcher=False),
    "gp": _Method(
        RandomSearch,
        rungs=False,
        searcher="gp",
        searcher_kwargs=(
            "num_init", "num_candidates", "loss_cap", "refit_every", "max_fit_points"
        ),
    ),
}

#: Scheduler names accepted by :func:`build_scheduler` (``"vizier"`` aliases
#: ``"gp"``).
SCHEDULERS = tuple(_METHODS)


def default_bracket_size(min_resource: float, max_resource: float, eta: int) -> int:
    """Smallest ``n`` filling a full SHA bracket (one config reaching ``R``)."""
    rungs = np.floor(np.log(max_resource / min_resource) / np.log(eta))
    return max(int(eta**rungs), eta)


def build_scheduler(
    name: str,
    space: SearchSpace,
    rng: np.random.Generator,
    *,
    min_resource: float,
    max_resource: float,
    eta: int,
    kwargs: dict[str, Any] | None = None,
    searcher: Searcher | None = None,
) -> Scheduler:
    """Construct a registered scheduler by name.

    ``kwargs`` is consumed destructively (defaults are filled in), so pass a
    copy if the caller still needs it.
    """
    kwargs = {} if kwargs is None else kwargs
    method = _METHODS.get("gp" if name == "vizier" else name)
    if method is None:
        raise KeyError(
            f"unknown scheduler {name!r}; scheduler options: {sorted(SCHEDULERS)}, "
            f"searcher options: {sorted(SEARCHERS)}"
        )
    if searcher is not None and not method.takes_searcher:
        raise ValueError(
            f"scheduler {name!r} owns its own sampling and does not accept a "
            "searcher; use scheduler='sha' or 'asha' with searcher='kde' for "
            "the BOHB family"
        )
    # The default searcher's knobs ride in ``scheduler_kwargs`` (journal
    # headers and ``tune`` calls spell them so); an explicit searcher
    # replaces the default and its knobs.
    owned = {key: kwargs.pop(key) for key in method.searcher_kwargs if key in kwargs}
    if searcher is None and method.searcher is not None:
        # Origins off: the comparators' seeded streams predate the origin tag.
        searcher = build_searcher(method.searcher, dict(owned, record_origin=False))
    if searcher is not None:
        kwargs.setdefault("searcher", searcher)
    if method.rule is SynchronousSHA:
        kwargs.setdefault("n", default_bracket_size(min_resource, max_resource, eta))
    if method.rule is PBT:
        kwargs.setdefault("interval", max_resource / 8.0)
    geometry = {"min_resource": min_resource, "eta": eta} if method.rungs else {}
    return method.rule(space, rng, max_resource=max_resource, **geometry, **kwargs)
