"""Infinite-horizon SHA via the doubling trick (Section 3.3's foil).

Section 3.3 contrasts ASHA's smooth infinite-horizon generalisation with
synchronous SHA, which "relies on the doubling trick and must rerun
brackets with larger budgets to increase the maximum resource".  This module
implements that foil faithfully so the latency comparison can actually be
run: each completed bracket is followed by a fresh bracket whose maximum
resource is ``eta`` times larger (so budgets double in the ``eta = 2``
case that names the trick), with ``n`` scaled to keep Algorithm 1's
``n >= eta**s_max`` requirement satisfied.  It is
:class:`~repro.core.sha.SynchronousSHA` with that bracket plan.

The consequence the paper calls out is measurable here: the interval
between outputs doubles from bracket to bracket, whereas infinite-horizon
ASHA emits progressively deeper results continuously (see
``tests/core/test_doubling.py`` and the latency ablation bench).
"""

from __future__ import annotations

import numpy as np

from ..searchspace import SearchSpace
from .bracket import Bracket
from .sha import SynchronousSHA, _BracketRun

__all__ = ["DoublingSHA"]


class DoublingSHA(SynchronousSHA):
    """Synchronous SHA with geometrically growing maximum resource.

    Parameters
    ----------
    min_resource:
        ``r``; fixed across brackets.
    initial_max_resource:
        ``R`` of the first bracket; bracket ``k`` uses ``R * eta**k``.
    eta:
        Reduction factor (and the budget growth factor between brackets).
    n:
        Configurations in the *first* bracket; bracket ``k`` samples
        ``n * eta**k`` so every rung keeps its occupancy ratios.
    max_brackets:
        Optional cap on how many brackets to run (``None`` = unbounded).
    """

    def __init__(
        self,
        space: SearchSpace,
        rng: np.random.Generator,
        *,
        min_resource: float,
        initial_max_resource: float,
        eta: int = 2,
        n: int | None = None,
        max_brackets: int | None = None,
    ):
        if n is None:
            n = eta ** Bracket(min_resource, initial_max_resource, eta, 0).s_max
        super().__init__(
            space, rng, n=n, min_resource=min_resource, max_resource=initial_max_resource, eta=eta
        )
        self.max_brackets = max_brackets
        #: (bracket index, winner trial id, resource) per completed bracket —
        #: the "outputs" whose inter-arrival interval doubles.
        self.outputs: list[tuple[int, int, float]] = []

    def _bracket(self, k: int) -> tuple[int, float, int] | None:
        if self.max_brackets is not None and k >= self.max_brackets:
            return None
        return self.n * self.eta**k, self.max_resource * self.eta**k, 0

    def _bracket_closed(self, run: _BracketRun) -> None:
        super()._bracket_closed(run)
        winner = run.bracket.rung(run.bracket.top_rung_index).best()
        if winner is not None:
            self.outputs.append(
                (self.brackets_started - 1, winner[0], run.bracket.max_resource)
            )

    def _state_extra(self) -> dict:
        return {**super()._state_extra(), "outputs": [list(out) for out in self.outputs]}

    def _load_extra(self, extra: dict) -> None:
        super()._load_extra(extra)
        self.outputs = [(int(k), int(tid), float(r)) for k, tid, r in extra["outputs"]]
