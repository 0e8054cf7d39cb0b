"""Grid proposal: walk a precomputed axis-aligned lattice, then stop.

The classical non-adaptive baseline as a :class:`Searcher`, so the grid can
be paired with *any* scheduler: classic grid search is the full-budget
:class:`~repro.core.random_search.RandomSearch` proposing from it, and the
early-stopping schedulers take it just the same.  A finite searcher:
:meth:`is_done` flips once the lattice is exhausted and schedulers stop
growing new trials while promotions continue.
"""

from __future__ import annotations

import numpy as np

from ..searchspace import Config, SearchSpace
from .base import ORIGIN_GRID, Searcher, SearcherError

__all__ = ["GridSearcher"]


class GridSearcher(Searcher):
    """Propose every point of an axis-aligned grid exactly once.

    Parameters
    ----------
    points_per_dim:
        Quantiles per continuous dimension (categoricals use all values).
    shuffle:
        Visit the grid in random order (recommended: axis order biases
        early incumbents otherwise).  The permutation is drawn from the
        scheduler's rng on the first proposal, keeping construction
        rng-free.
    """

    def __init__(self, *, points_per_dim: int = 3, shuffle: bool = True, record_origin: bool = True):
        super().__init__(record_origin=record_origin)
        if points_per_dim < 2:
            raise ValueError(f"points_per_dim must be >= 2, got {points_per_dim}")
        self.points_per_dim = points_per_dim
        self.shuffle = shuffle
        self._queue: list[Config] = []
        self._shuffled = False
        self._cursor = 0

    def _setup(self, space: SearchSpace) -> None:
        self._queue = space.grid(self.points_per_dim)

    @property
    def grid_size(self) -> int:
        return len(self._queue)

    def is_done(self) -> bool:
        return self.space is not None and self._cursor >= len(self._queue)

    def _propose(self, rng: np.random.Generator) -> tuple[Config, str]:
        if self.shuffle and not self._shuffled:
            order = rng.permutation(len(self._queue))
            self._queue = [self._queue[i] for i in order]
            self._shuffled = True
        if self._cursor >= len(self._queue):
            raise SearcherError("grid exhausted: suggest() called after is_done()")
        config = self._queue[self._cursor]
        self._cursor += 1
        return config, ORIGIN_GRID

    # ------------------------------------------------------------ snapshots

    def _searcher_state(self) -> dict:
        # The queue is serialized in its *current* (possibly shuffled) order,
        # so restoring never replays the permutation draw.
        return {
            "queue": [dict(config) for config in self._queue],
            "shuffled": self._shuffled,
            "cursor": self._cursor,
        }

    def _load_searcher_state(self, extra: dict) -> None:
        self._queue = [dict(config) for config in extra["queue"]]
        self._shuffled = bool(extra["shuffled"])
        self._cursor = int(extra["cursor"])
