"""Uniform random proposal — the paper's default — plus a callable adapter.

Random search over a well-designed space is the baseline every adaptive
method in the paper is measured against; as a :class:`Searcher` it is
stateless and ignores all feedback.  :class:`FunctionSearcher` wraps a bare
``sampler(rng) -> config`` callable (the scripted Figure-2 replays) in the
same protocol.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..searchspace import Config, SearchSpace
from .base import ORIGIN_RANDOM, Searcher

__all__ = ["RandomSearcher", "FunctionSearcher"]


class RandomSearcher(Searcher):
    """Propose i.i.d. uniform samples from the search space."""

    def _propose(self, rng: np.random.Generator) -> tuple[Config, str]:
        assert self.space is not None
        return self.space.sample(rng), ORIGIN_RANDOM

    def _searcher_state(self) -> dict:
        return {}

    def _load_searcher_state(self, extra: dict) -> None:
        pass


class FunctionSearcher(Searcher):
    """Adapt a plain ``sampler(rng) -> config`` callable to the protocol.

    Feedback is dropped on the floor — a bare callable has nowhere to put
    it.  Origin recording defaults off: the scripted streams it replays
    predate the origin tag.
    """

    def __init__(
        self,
        fn: Callable[[np.random.Generator], Config],
        *,
        record_origin: bool = False,
    ):
        super().__init__(record_origin=record_origin)
        self._fn = fn

    def _setup(self, space: SearchSpace) -> None:
        pass

    def _propose(self, rng: np.random.Generator) -> tuple[Config, str]:
        return self._fn(rng), ORIGIN_RANDOM

    def _searcher_state(self) -> dict:
        # The wrapped callable owns any state (scripted queues etc.); only a
        # pure function of the rng round-trips — which is the documented use.
        return {}

    def _load_searcher_state(self, extra: dict) -> None:
        pass
