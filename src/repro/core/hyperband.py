"""Synchronous Hyperband: loop SHA brackets over early-stopping rates.

Hyperband [Li et al., 2018] hedges over the early-stopping rate by running
one SHA bracket for every rate ``s`` in ``{0, ..., s_max}`` and looping.  Per
the classic budget-balancing rule, bracket ``s`` evaluates

    ``n_s = ceil((s_max + 1) / (num_rungs_s) * eta**(s_max - s))``

configurations so every bracket consumes roughly the same total resource.
The experiments in Appendix A.3 loop through 5 brackets, from the most
aggressive (``s = 0``, ``r = R/256``) to plain random search at scale ``R``
(``s = 4``).

Hyperband is :class:`~repro.core.sha.SynchronousSHA` with that bracket plan:
brackets run one at a time, the next starting once the current one is done.
The scheduler exposes :attr:`completed_brackets` so the analysis layer can
implement both incumbent-accounting schemes from Appendix A.2 ("by rung"
vs "by bracket").
"""

from __future__ import annotations

import math

import numpy as np

from ..searchers.base import Searcher
from ..searchspace import SearchSpace
from .bracket import Bracket
from .sha import SynchronousSHA

__all__ = ["Hyperband", "hyperband_bracket_sizes"]


def hyperband_bracket_sizes(min_resource: float, max_resource: float, eta: int) -> list[int]:
    """Number of configurations ``n_s`` for each bracket ``s = 0..s_max``."""
    probe = Bracket(min_resource, max_resource, eta, 0)
    s_max = probe.s_max
    sizes = []
    for s in range(s_max + 1):
        num_rungs = s_max - s + 1
        n_s = math.ceil((s_max + 1) / num_rungs * eta ** (s_max - s))
        # Algorithm 1 line 3: at least one configuration must reach R.
        sizes.append(max(n_s, eta ** (s_max - s)))
    return sizes


class Hyperband(SynchronousSHA):
    """Loop synchronous SHA brackets ``s = 0, 1, ..., s_max, 0, 1, ...``.

    Parameters
    ----------
    min_resource, max_resource, eta:
        Geometry shared by every bracket.
    from_checkpoint:
        Whether promotions within a bracket resume from checkpoints.
    max_loops:
        Optional number of full passes over all brackets; ``None`` loops
        forever (the backend's time budget terminates the search).
    searcher:
        Optional shared :class:`~repro.searchers.base.Searcher`: every SHA
        bracket proposes through it and feeds it every result, so the model
        accumulates observations across brackets.
    """

    def __init__(
        self,
        space: SearchSpace,
        rng: np.random.Generator,
        *,
        min_resource: float,
        max_resource: float,
        eta: int = 4,
        from_checkpoint: bool = True,
        max_loops: int | None = None,
        searcher: Searcher | None = None,
    ):
        self.bracket_sizes = hyperband_bracket_sizes(min_resource, max_resource, eta)
        self.max_loops = max_loops
        super().__init__(
            space,
            rng,
            n=self.bracket_sizes[0],
            min_resource=min_resource,
            max_resource=max_resource,
            eta=eta,
            from_checkpoint=from_checkpoint,
            searcher=searcher,
        )

    def _bracket(self, k: int) -> tuple[int, float, int] | None:
        loop, s = divmod(k, len(self.bracket_sizes))
        if self.max_loops is not None and loop >= self.max_loops:
            return None
        return self.bracket_sizes[s], self.max_resource, s
