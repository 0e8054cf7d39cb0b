"""Monte-Carlo check of the Section 3.3 mispromotion argument.

"Intuitively, in the first rung with n evaluated configurations, the number
of mispromoted configurations is roughly sqrt(n), since the process
resembles the convergence of an empirical cumulative distribution function
to its expected value (c.f. the Dvoretzky-Kiefer-Wolfowitz inequality)."

We reproduce the stochastic process exactly, on the system's own
:class:`~repro.core.rung.Rung`: configurations with i.i.d. quality arrive one
at a time (ASHA's growing base rung); after each arrival the rung promotes
its best promotable configuration until none is left, as ASHA's promotion
scan does.  A *mispromotion* is a promoted configuration that does not
belong to the top ``n/eta`` of the final pool.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.rung import Rung

__all__ = ["simulate_mispromotions", "MispromotionStudy", "mispromotion_curve"]


def simulate_mispromotions(n: int, eta: int, rng: np.random.Generator) -> int:
    """Number of incorrect rung-0 promotions after ``n`` sequential arrivals."""
    if n < eta:
        return 0
    losses = rng.random(n)
    rung = Rung(0, 1.0)
    for trial_id, loss in enumerate(losses.tolist()):
        rung.record(trial_id, loss)
        while (promotable := rung.first_promotable(eta)) is not None:
            rung.mark_promoted(promotable)
    true_top = set(np.argsort(losses)[: n // eta].tolist())
    return len(rung.promoted - true_top)


@dataclass
class MispromotionStudy:
    """Aggregated mispromotion counts for one ``n``."""

    n: int
    eta: int
    mean: float
    std: float
    sqrt_n: float

    @property
    def ratio(self) -> float:
        """Mean mispromotions divided by sqrt(n) — should be O(1) in n."""
        return self.mean / self.sqrt_n


def mispromotion_curve(
    ns: list[int], eta: int = 4, repeats: int = 20, seed: int = 0
) -> list[MispromotionStudy]:
    """Mispromotion statistics across pool sizes (the bench's series)."""
    rng = np.random.default_rng(seed)
    out = []
    for n in ns:
        counts = [simulate_mispromotions(n, eta, rng) for _ in range(repeats)]
        out.append(
            MispromotionStudy(
                n=n,
                eta=eta,
                mean=float(np.mean(counts)),
                std=float(np.std(counts)),
                sqrt_n=float(np.sqrt(n)),
            )
        )
    return out
