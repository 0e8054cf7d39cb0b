"""The ``Searcher`` protocol: how configurations are *proposed*.

The paper's conclusion ("combining ASHA with adaptive selection methods",
Section 5) observes that ASHA's promotion logic is orthogonal to how new
configurations are chosen — and the strongest follow-ups (MOBSTER,
Hyper-Tune) get their gains precisely from pairing asynchronous promotion
with model-based sampling.  This module makes that orthogonality a
first-class axis: a :class:`Searcher` owns proposal and observation state,
a :class:`~repro.core.scheduler.Scheduler` owns promotion and resource
allocation, and any scheduler can drive any searcher.

Protocol (template methods, so call bookkeeping is uniform and the contract
checker can audit it):

* ``setup(space)`` — bind the search space once, before the first proposal;
* ``suggest(rng) -> Config`` — propose the next configuration;
* ``on_result(trial, resource, loss, rung=...)`` — observation feedback for
  every reported loss, at any fidelity;
* ``on_trial_complete(trial, loss)`` — the trial reached its terminal rung;
* ``on_trial_error(trial)`` — the trial was dropped without a result;
* ``is_done()`` — the searcher can propose nothing further (finite
  searchers only, e.g. grid); ``suggest`` must not be called afterwards.

Every proposal is tagged with an *origin* — :data:`ORIGIN_MODEL` when an
adaptive model produced it, :data:`ORIGIN_RANDOM` for uniform sampling or a
random fallback — which schedulers forward into ``trial_started`` telemetry
so the metrics layer can report model-hit rates.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING

import numpy as np

from ..searchspace import Config, SearchSpace

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (core imports us)
    from ..core.types import Trial

__all__ = ["Searcher", "SearcherError", "ORIGIN_MODEL", "ORIGIN_RANDOM", "ORIGIN_GRID"]

#: Proposal came out of a fitted model (KDE ratio argmax, GP-EI argmax, ...).
ORIGIN_MODEL = "model_based"
#: Proposal is uniform — either by design or as a model warm-up/fallback.
ORIGIN_RANDOM = "random_fallback"
#: Proposal came off a precomputed deterministic lattice.
ORIGIN_GRID = "grid"


class SearcherError(RuntimeError):
    """A searcher was driven outside its protocol (setup/suggest misuse)."""


class Searcher(ABC):
    """Base class for proposal strategies attachable to schedulers.

    Subclasses implement :meth:`_propose` (and optionally :meth:`_setup`,
    :meth:`_observe`, :meth:`_complete`); the public methods wrap them with
    the bookkeeping — call counters and the last proposal's origin — that
    :class:`~repro.core.contract.ContractChecker` audits.

    Parameters
    ----------
    record_origin:
        Whether :attr:`origin` exposes the proposal origin for telemetry.
        The default searchers of the ``"bohb"`` and ``"gp"`` scheduler
        registry rows switch this off so the comparators' seeded telemetry
        streams stay byte-identical with the recordings that predate the
        origin tag; searchers attached explicitly
        (``tune(..., searcher=...)``) record origins.
    """

    def __init__(self, *, record_origin: bool = True):
        self.record_origin = record_origin
        self.space: SearchSpace | None = None
        self._last_origin: str | None = None
        #: Protocol counters, audited by the scheduler contract checker.
        self.num_suggestions = 0
        self.num_results = 0
        self.num_completions = 0

    # ------------------------------------------------------------ lifecycle

    def setup(self, space: SearchSpace) -> "Searcher":
        """Bind the search space; idempotent for the same space object.

        Composite schedulers (Hyperband's inner SHA brackets, the async
        variants' ASHA ladders) share one searcher across sub-schedulers, so
        ``setup`` is called once per sub-scheduler with the same space.
        Rebinding to a *different* space would silently mix observation
        scales, so it is an error.
        """
        if self.space is not None:
            if self.space is not space:
                raise SearcherError(
                    f"{type(self).__name__} is already bound to a search space; "
                    "build a fresh searcher per search"
                )
            return self
        self.space = space
        self._setup(space)
        return self

    def _setup(self, space: SearchSpace) -> None:
        """Subclass hook: build encoders/queues once the space is known."""

    # ------------------------------------------------------------ proposals

    def suggest(self, rng: np.random.Generator) -> Config:
        """Propose the next configuration to evaluate."""
        if self.space is None:
            raise SearcherError(f"{type(self).__name__}.setup(space) must run before suggest()")
        config, origin = self._propose(rng)
        self._last_origin = origin
        self.num_suggestions += 1
        return config

    @abstractmethod
    def _propose(self, rng: np.random.Generator) -> tuple[Config, str]:
        """Return ``(config, origin)``; origin is one of the ``ORIGIN_*`` tags."""

    @property
    def origin(self) -> str | None:
        """Origin of the last proposal, or ``None`` when recording is off."""
        return self._last_origin if self.record_origin else None

    def is_done(self) -> bool:
        """Whether the searcher is exhausted.  Must never flip back to False."""
        return False

    # ------------------------------------------------------------- feedback

    def on_result(self, trial: "Trial", resource: float, loss: float, *, rung: int = 0) -> None:
        """Ingest one reported loss for ``trial`` at cumulative ``resource``.

        Schedulers forward **every** reported loss exactly once, passing the
        rung the result was filed into (0 for rung-less schedulers).
        """
        self.num_results += 1
        self._observe(trial, resource, loss, rung)

    def _observe(self, trial: "Trial", resource: float, loss: float, rung: int) -> None:
        """Subclass hook: update proposal models with one observation."""

    def on_trial_complete(self, trial: "Trial", loss: float) -> None:
        """``trial`` reached its terminal rung with final ``loss``."""
        self.num_completions += 1
        self._complete(trial, loss)

    def _complete(self, trial: "Trial", loss: float) -> None:
        """Subclass hook: terminal-result bookkeeping."""

    def on_trial_error(self, trial: "Trial") -> None:
        """``trial`` was dropped without a usable result (default: ignore)."""

    # ------------------------------------------------------------ snapshots

    def state_dict(self) -> dict:
        """Serialize proposal state as JSON-safe plain data.

        The base captures the protocol counters and origin; model internals
        go through :meth:`_searcher_state`.  Restoring into a freshly
        constructed searcher (same constructor arguments, bound to the same
        space) via :meth:`load_state` must resume the exact proposal
        sequence given the same rng stream.
        """
        return {
            "type": type(self).__name__,
            "last_origin": self._last_origin,
            "num_suggestions": self.num_suggestions,
            "num_results": self.num_results,
            "num_completions": self.num_completions,
            "extra": self._searcher_state(),
        }

    def load_state(self, state: dict) -> None:
        """Restore :meth:`state_dict` output into this searcher."""
        expected = state["type"]
        if expected != type(self).__name__:
            raise SearcherError(
                f"state is for searcher {expected!r}, not {type(self).__name__!r}"
            )
        self._last_origin = state["last_origin"]
        self.num_suggestions = int(state["num_suggestions"])
        self.num_results = int(state["num_results"])
        self.num_completions = int(state["num_completions"])
        self._load_searcher_state(state["extra"])

    def _searcher_state(self) -> dict:
        """Subclass hook: model internals beyond the base counters."""
        raise NotImplementedError(
            f"{type(self).__name__} does not support state serialization"
        )

    def _load_searcher_state(self, extra: dict) -> None:
        """Subclass hook: restore :meth:`_searcher_state` output."""
        raise NotImplementedError(
            f"{type(self).__name__} does not support state serialization"
        )
