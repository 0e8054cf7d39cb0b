"""TPE/KDE proposal — BOHB's model bank, extracted from the scheduler.

"BOHB uses SHA to perform early-stopping and differs only in how
configurations are sampled" (Section 4.1).  This searcher *is* that
difference: one TPE-style KDE model per rung ("budget"), proposals from the
model of the highest rung with enough observations, a fixed fraction kept
uniformly random.  As a searcher it composes with any scheduler —
synchronous SHA proposing from it is BOHB (the ``"bohb"`` scheduler registry
row), ASHA yields the asynchronous model-based tuner the paper's conclusion
gestures at.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from ..models.kde import TPESampler
from ..searchspace import Config, SearchSpace, UnitCubeEncoder
from .base import ORIGIN_MODEL, ORIGIN_RANDOM, Searcher

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..core.types import Trial

__all__ = ["KDESearcher"]


class KDESearcher(Searcher):
    """Per-rung TPE models + highest-ready-rung proposal rule.

    Parameters
    ----------
    gamma, num_candidates, random_fraction, min_points:
        See :class:`repro.models.kde.TPESampler` (BOHB defaults).
    """

    def __init__(
        self,
        *,
        gamma: float = 0.15,
        num_candidates: int = 24,
        random_fraction: float = 1.0 / 3.0,
        min_points: int | None = None,
        record_origin: bool = True,
    ):
        super().__init__(record_origin=record_origin)
        self.gamma = gamma
        self.num_candidates = num_candidates
        self.random_fraction = random_fraction
        self.min_points = min_points
        self.encoder: UnitCubeEncoder | None = None
        #: rung -> TPE model over that rung's observations.
        self.models: dict[int, TPESampler] = {}
        self._new_model(1)  # bad options fail here, not at the first observation

    def _new_model(self, dim: int) -> TPESampler:
        return TPESampler(
            dim,
            gamma=self.gamma,
            num_candidates=self.num_candidates,
            random_fraction=self.random_fraction,
            min_points=self.min_points,
        )

    def _setup(self, space: SearchSpace) -> None:
        self.encoder = UnitCubeEncoder(space)

    def _observe(self, trial: "Trial", resource: float, loss: float, rung: int) -> None:
        assert self.encoder is not None
        model = self.models.get(rung)
        if model is None:
            model = self.models[rung] = self._new_model(self.encoder.dim)
        model.observe(self.encoder.encode(trial.config), loss)

    def _propose(self, rng: np.random.Generator) -> tuple[Config, str]:
        assert self.encoder is not None
        for rung in sorted(self.models, reverse=True):
            model = self.models[rung]
            if model.model_ready():
                x = model.propose(rng)
                origin = ORIGIN_MODEL if model.last_proposal_was_model else ORIGIN_RANDOM
                return self.encoder.decode(x), origin
        return self.encoder.decode(rng.random(self.encoder.dim)), ORIGIN_RANDOM

    # ------------------------------------------------------------ snapshots

    def _searcher_state(self) -> dict:
        return {
            "models": {
                str(rung): {
                    "x": [x.tolist() for x in model._x],
                    "y": list(model._y),
                    "last_proposal_was_model": model.last_proposal_was_model,
                }
                for rung, model in self.models.items()
            }
        }

    def _load_searcher_state(self, extra: dict) -> None:
        self.models = {}
        for rung_key, model_state in extra["models"].items():
            model = self._new_model(
                self.encoder.dim if self.encoder is not None else len(model_state["x"][0])
            )
            for x, y in zip(model_state["x"], model_state["y"]):
                model.observe(x, y)
            model.last_proposal_was_model = bool(model_state["last_proposal_was_model"])
            self.models[int(rung_key)] = model

    # ------------------------------------------------------------- insight

    def num_observations(self, rung: int) -> int:
        """Observations filed into the rung's model (0 if it has none)."""
        model = self.models.get(rung)
        return model.num_observations if model is not None else 0
