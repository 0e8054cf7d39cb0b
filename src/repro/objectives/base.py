"""The objective protocol: what schedulers tune and backends execute.

An :class:`Objective` is a resumable training process.  Backends hold one
opaque *state* per trial (the "weights" / checkpoint) and advance it in
resource increments:

``state = initial_state(config)`` then repeatedly
``state, loss = train(state, config, from_resource, to_resource)``.

``cost`` reports how long an increment takes in backend time units — for the
simulated cluster this *is* the clock; for the threaded backend it is
ignored (real time is real).  The default cost model is the paper's
assumption that "training time for a configuration scales linearly with the
allocated resource" (Section 3.1), optionally scaled by a config-dependent
multiplier (the source of benchmark 2's straggler pain in Section 4.2).

Determinism contract: ``train`` must be a pure function of
``(state, config, from_resource, to_resource)`` so that a configuration's
learning curve is identical no matter which scheduler runs it — that is what
makes cross-scheduler comparisons and the promotion-equivalence tests fair.
"""

from __future__ import annotations

import hashlib
import json
from abc import ABC, abstractmethod
from typing import Any

from ..canonical import unwrap
from ..searchspace import Config, SearchSpace

__all__ = ["Objective", "config_payload", "config_seed"]

_encode_config = json.JSONEncoder(sort_keys=True, default=unwrap).encode


def config_payload(config: Config) -> bytes:
    """The canonical JSON encoding of a configuration.

    ``json.dumps(config, sort_keys=True, default=unwrap)`` with json's
    default separators, from one encoder built at import; numpy scalars
    encode as their Python values, as in the journal.  Callers that derive
    several seeds from the same configuration (e.g. a profile seed and a
    noise seed) encode once and pass the payload to :func:`config_seed` —
    the JSON canonicalisation dominates the hashing.
    """
    return _encode_config(config).encode()


def config_seed(config: Config, salt: int = 0, *, payload: bytes | None = None) -> int:
    """A stable 64-bit seed derived from a configuration's contents.

    Uses a canonical JSON encoding hashed with blake2b, so the same
    configuration yields the same seed across processes and schedulers
    (Python's built-in ``hash`` is salted per process and unusable here).
    ``payload`` short-circuits the encoding when the caller already holds
    :func:`config_payload`'s output for this configuration.
    """
    if payload is None:
        payload = config_payload(config)
    digest = hashlib.blake2b(payload, digest_size=8, salt=salt.to_bytes(8, "little"))
    return int.from_bytes(digest.digest(), "little")


class Objective(ABC):
    """A resumable, deterministic training process over a search space."""

    #: The hyperparameter space this objective is tuned over.
    space: SearchSpace
    #: The maximum meaningful resource ``R`` (informational; schedulers set
    #: their own horizons).
    max_resource: float
    #: Whether ``train`` may run in a forked worker process: its states and
    #: losses must pickle, and it must not mutate master-side state the rest
    #: of the run observes (counters, shared RNGs).  Stateful wrappers like
    #: :class:`~repro.backend.faults.FailureInjectingObjective` set this
    #: False, and :class:`~repro.backend.process_pool.ProcessPoolBackend`
    #: then trains inline rather than silently diverging.
    process_safe: bool = True

    @abstractmethod
    def initial_state(self, config: Config) -> Any:
        """Fresh training state ("random init weights") for ``config``."""

    @abstractmethod
    def train(
        self, state: Any, config: Config, from_resource: float, to_resource: float
    ) -> tuple[Any, float]:
        """Advance ``state`` from ``from_resource`` to ``to_resource``.

        Returns the new state and the validation loss at ``to_resource``.
        """

    def cost(self, config: Config, from_resource: float, to_resource: float) -> float:
        """Backend time units to train the increment.

        Default: linear in the resource delta, scaled by
        :meth:`cost_multiplier`.
        """
        return max(to_resource - from_resource, 0.0) * self.cost_multiplier(config)

    def nominal_cost(self, config: Config, from_resource: float, to_resource: float) -> float:
        """The *expected* cost of an increment, for planning purposes.

        Identical to :meth:`cost` by default.  Fault-injection wrappers
        (:class:`~repro.backend.faults.FailureInjectingObjective`) override
        ``cost`` to model hangs while keeping ``nominal_cost`` clean, so job
        deadlines (``RetryPolicy.timeout_factor``) are computed from what the
        job *should* take, not from the fault being injected.
        """
        return self.cost(config, from_resource, to_resource)

    def cost_multiplier(self, config: Config) -> float:
        """Config-dependent per-unit training cost (default 1).

        Benchmarks where model size varies (e.g. the small-CNN architecture
        task, Table 1) override this — the paper reports a 30 +/- 27 minute
        spread in time-to-R there, which drives synchronous SHA's straggler
        problem.
        """
        return 1.0

    def evaluate(self, config: Config, resource: float) -> float:
        """Convenience: loss of ``config`` trained from scratch to ``resource``.

        Used for offline validation of incumbents (the Appendix A.2
        evaluation framework) and in tests.
        """
        state = self.initial_state(config)
        _, loss = self.train(state, config, 0.0, resource)
        return loss
