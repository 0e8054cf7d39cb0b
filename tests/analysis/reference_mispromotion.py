"""The Section 3.3 mispromotion Monte-Carlo before it drove ``core.rung.Rung``, verbatim.

``simulate_mispromotions`` as it stood in ``analysis/mispromotion.py``: its
own sorted list of ``(loss, index)`` arrivals and a promoted set, scanned
after each arrival.  ``test_mispromotion.py`` holds the system's rung to
it: same count for the same draws.
"""

from __future__ import annotations

import numpy as np


def simulate_mispromotions(n: int, eta: int, rng: np.random.Generator) -> int:
    """Number of incorrect rung-0 promotions after ``n`` sequential arrivals."""
    if n < eta:
        return 0
    losses = rng.random(n)
    promoted: list[int] = []
    promoted_set: set[int] = set()
    # Maintain the sorted prefix incrementally; n is a few thousand at most in
    # the bench, so a numpy argsort per arrival would be O(n^2 log n) — use
    # insertion into a sorted list of (loss, index) instead.
    import bisect

    sorted_prefix: list[tuple[float, int]] = []
    for i in range(n):
        bisect.insort(sorted_prefix, (losses[i], i))
        quota = (i + 1) // eta
        for loss, idx in sorted_prefix[:quota]:
            if idx not in promoted_set:
                promoted_set.add(idx)
                promoted.append(idx)
    true_top = set(np.argsort(losses)[: n // eta].tolist())
    return sum(1 for idx in promoted if idx not in true_top)
