"""Surrogate objectives: seeded, resumable learning-curve workloads.

A :class:`SurrogateObjective` turns a *profile function* — a deterministic
map from configuration to :class:`~repro.objectives.curves.CurveProfile` —
into a full :class:`~repro.objectives.base.Objective`: resumable state,
deterministic per-(config, resource) observation noise, and a config-
dependent cost model.

Why this preserves the paper's behaviour: every scheduler in this library
consumes only ``(config, resource) -> loss`` and ``cost(config, delta)``.
The profile functions in the benchmark modules are built so that the
*response surface structure* (learning-rate cliffs, size/cost coupling,
heavy-tailed divergence) matches what the paper describes for each workload;
absolute values are calibrated to the figures' reported ranges.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass
from statistics import NormalDist
from typing import Callable

from ..searchspace import Config, SearchSpace
from .base import Objective, config_payload, config_seed
from .curves import CurveProfile, advance_loss, curve_loss

__all__ = ["CurveState", "SurrogateObjective", "seeded_normal", "seeded_uniform"]


# Precompiled packers for the overwhelmingly common arities: building and
# parsing an f-string format per draw was measurable at simulator scale.
# The packed bytes are identical to ``struct.pack(f"<Q{n}d", ...)``.
_PACK_1 = struct.Struct("<Qd").pack
_PACK_2 = struct.Struct("<Qdd").pack
_MASK = 2**64 - 1
_blake2b = hashlib.blake2b


def _hash_floats(seed: int, *values: float) -> int:
    """Stable 64-bit hash of a seed plus float values (for measurement noise)."""
    n = len(values)
    if n == 1:
        payload = _PACK_1(seed & _MASK, values[0])
    elif n == 2:
        payload = _PACK_2(seed & _MASK, values[0], values[1])
    else:
        payload = struct.pack(f"<Q{n}d", seed & _MASK, *values)
    return int.from_bytes(_blake2b(payload, digest_size=8).digest(), "little")


_NORMAL = NormalDist()


def seeded_normal(seed: int, *values: float) -> float:
    """A deterministic N(0, 1) draw keyed by ``(seed, values)``.

    Implemented as the inverse normal CDF of a hash-derived uniform — much
    cheaper than constructing a ``numpy`` generator per draw, which matters
    because the simulator calls this once per reported job.
    """
    return _NORMAL.inv_cdf(seeded_uniform(seed, *values))


def seeded_uniform(seed: int, *values: float) -> float:
    """A deterministic U(0, 1) draw keyed by ``(seed, values)``."""
    # 53 mantissa bits of the 64-bit hash -> uniform in (0, 1) exclusive.
    u = (_hash_floats(seed, *values) >> 11) * (1.0 / (1 << 53))
    return min(max(u, 1e-16), 1.0 - 1e-16)


@dataclass
class CurveState:
    """Training state of one surrogate trial: its current clean loss level."""

    clean_loss: float


class SurrogateObjective(Objective):
    """An objective defined by a per-configuration curve profile.

    Parameters
    ----------
    space:
        Hyperparameter space.
    max_resource:
        The benchmark's ``R``.
    profile_fn:
        Deterministic map ``(config, seed) -> CurveProfile``; the seed is a
        stable per-config value the function may use for idiosyncratic
        (config-level) variation.
    seed_salt:
        Varies the benchmark instance across experiment trials, mimicking
        different train/validation splits: the same config gets a different
        (but still deterministic) curve under a different salt.
    """

    def __init__(
        self,
        space: SearchSpace,
        max_resource: float,
        profile_fn: Callable[[Config, int], CurveProfile],
        *,
        seed_salt: int = 0,
    ):
        self.space = space
        self.max_resource = max_resource
        self.profile_fn = profile_fn
        self.seed_salt = seed_salt
        # Hot-path cache keyed by the config dict's identity: trials hold one
        # stable config object for their lifetime, and hashing the dict
        # contents (JSON + blake2b) per job is measurable at 500-worker
        # scale.  The config reference is kept so the id cannot be recycled.
        self._id_cache: dict[int, tuple[Config, CurveProfile, int]] = {}

    # ---------------------------------------------------------- Objective

    def _lookup(self, config: Config) -> tuple[CurveProfile, int]:
        """(profile, noise seed) for ``config``, cached on the dict identity."""
        key = id(config)
        hit = self._id_cache.get(key)
        if hit is not None and hit[0] is config:
            return hit[1], hit[2]
        # Canonicalise the config once: both seeds hash the same payload
        # under different salts, and the JSON encoding is the expensive part
        # (one fresh config per sampled trial at 500-worker scale).
        payload = config_payload(config)
        seed = config_seed(config, salt=self.seed_salt, payload=payload)
        profile = self.profile_fn(config, seed)
        noise_seed = config_seed(config, salt=self.seed_salt + 1, payload=payload)
        self._id_cache[key] = (config, profile, noise_seed)
        return profile, noise_seed

    def profile(self, config: Config) -> CurveProfile:
        """The (cached) curve profile of ``config``."""
        return self._lookup(config)[0]

    def initial_state(self, config: Config) -> CurveState:
        return CurveState(clean_loss=self.profile(config).initial_loss)

    def train(
        self, state: CurveState, config: Config, from_resource: float, to_resource: float
    ) -> tuple[CurveState, float]:
        if to_resource < from_resource:
            raise ValueError(
                f"cannot train backwards: {from_resource} -> {to_resource}"
            )
        profile, noise_seed = self._lookup(config)
        clean = advance_loss(profile, state.clean_loss, to_resource - from_resource)
        observed = clean
        if profile.noise_std > 0:
            z = seeded_normal(noise_seed, to_resource)
            if profile.noise_mode == "relative":
                observed = clean * (1.0 + profile.noise_std * z)
            else:
                gap = profile.initial_loss - profile.asymptote
                observed = clean + profile.noise_std * gap * z
        return CurveState(clean_loss=clean), observed

    def cost_multiplier(self, config: Config) -> float:
        return self.profile(config).cost_multiplier

    # ------------------------------------------------------------ insight

    def clean_loss_at(self, config: Config, resource: float) -> float:
        """Noise-free from-scratch loss (ground truth for analysis/tests)."""
        return curve_loss(self.profile(config), resource)
