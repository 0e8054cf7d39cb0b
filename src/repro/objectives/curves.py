"""Parametric learning-curve families for the surrogate objectives.

All surrogate workloads share one curve family: a power-law decay from an
initial loss toward a configuration-dependent asymptote,

    ``loss(r) = a + (l0 - a) * (1 + r / h) ** (-gamma)``

which matches the empirically observed shape of validation-loss curves for
SGD-trained models (cf. Domhan et al. 2015's pow3/pow4 families).  The
family is invertible in ``r``, which is what lets a curve be *resumed from a
loss level* — the mechanism PBT's weight inheritance rides on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["CurveProfile", "curve_loss", "invert_curve", "advance_loss"]


@dataclass(frozen=True, slots=True)
class CurveProfile:
    """Everything the surrogate needs to know about one configuration.

    Parameters
    ----------
    asymptote:
        Loss as resource -> infinity (the configuration's quality).
    initial_loss:
        Loss at zero resource (chance performance).
    gamma:
        Power-law decay exponent; larger = faster convergence.
    half_resource:
        Resource scale ``h``; the curve reaches roughly halfway to the
        asymptote after a few multiples of ``h``.
    noise_std:
        Std of per-measurement observation noise.  With the default
        ``noise_mode="gap"`` it is relative to the initial-to-asymptote gap;
        with ``noise_mode="relative"`` it is multiplicative on the clean
        loss (the right model for perplexities, whose gap spans orders of
        magnitude).
    cost_multiplier:
        Per-resource-unit training cost relative to the benchmark average —
        the source of training-time variance across configurations.
    """

    asymptote: float
    initial_loss: float
    gamma: float = 0.7
    half_resource: float = 1.0
    noise_std: float = 0.0
    cost_multiplier: float = 1.0
    noise_mode: str = "gap"

    def __post_init__(self) -> None:
        if self.initial_loss < self.asymptote:
            raise ValueError(
                f"initial_loss ({self.initial_loss}) must be >= asymptote ({self.asymptote})"
            )
        if self.gamma <= 0 or self.half_resource <= 0:
            raise ValueError("gamma and half_resource must be positive")
        if self.cost_multiplier <= 0:
            raise ValueError("cost_multiplier must be positive")
        if self.noise_mode not in ("gap", "relative"):
            raise ValueError(f"unknown noise_mode {self.noise_mode!r}")


def curve_loss(profile: CurveProfile, resource: float) -> float:
    """Noise-free loss after training from scratch for ``resource``."""
    if resource < 0:
        raise ValueError(f"resource must be >= 0, got {resource}")
    gap = profile.initial_loss - profile.asymptote
    return profile.asymptote + gap * (1.0 + resource / profile.half_resource) ** (-profile.gamma)


def invert_curve(profile: CurveProfile, loss: float) -> float:
    """The resource at which the curve passes through ``loss``.

    Returns ``inf`` for losses at/below the asymptote and ``0`` for losses
    at/above the initial loss.
    """
    if loss >= profile.initial_loss:
        return 0.0
    if loss <= profile.asymptote:
        return math.inf
    gap = profile.initial_loss - profile.asymptote
    ratio = (loss - profile.asymptote) / gap
    return profile.half_resource * (ratio ** (-1.0 / profile.gamma) - 1.0)


def advance_loss(profile: CurveProfile, current_loss: float, delta_resource: float) -> float:
    """Continue training from ``current_loss`` for ``delta_resource`` more.

    If the current loss sits *on or above* the configuration's own curve, we
    locate the effective position on the curve and slide along it — this is
    how checkpoint resume works.  If the current loss is *better than the
    configuration can achieve* (a PBT clone inheriting strong weights under
    weaker hyperparameters), the loss relaxes exponentially toward the
    configuration's asymptote instead.
    """
    if delta_resource < 0:
        raise ValueError(f"delta_resource must be >= 0, got {delta_resource}")
    if delta_resource == 0:
        return current_loss
    if current_loss <= profile.asymptote:
        # Better than this config can sustain: drift up toward its asymptote.
        # The relaxation is fast (one half_resource scale) — inherited weights
        # help less under worse hyperparameters than under the donor's own,
        # which keeps PBT's exploit step from being a free lunch.
        tau = profile.half_resource
        return profile.asymptote + (current_loss - profile.asymptote) * math.exp(
            -delta_resource / tau
        )
    effective = invert_curve(profile, current_loss)
    return curve_loss(profile, effective + delta_resource)
