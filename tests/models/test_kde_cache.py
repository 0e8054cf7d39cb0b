"""The cached TPE sampler against the one it replaced, which refit on every proposal.

``TPESampler`` keeps its good/bad split and both densities from one model
proposal to the next and drops them in ``observe``.  ``reference_kde`` is
the sampler as it was before, verbatim.  Driven through the same
observe/propose interleaving with generators seeded alike, the two must
agree on every proposal bit, every proposal origin and the generator state
after every step — across the cap on good points and the per-proposal
subsample of bad ones (both at 256), and with non-finite losses.
"""

from __future__ import annotations

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference_kde as reference
from repro.models import TPESampler

#: (observations to add, proposals to draw) per step; 300 crosses the 256 caps.
_STEPS = st.lists(
    st.tuples(st.sampled_from([0, 1, 1, 2, 3, 7, 40, 300]), st.integers(0, 3)),
    min_size=1,
    max_size=8,
)


def _loss(data: np.random.Generator, x: np.ndarray, nonfinite: float) -> float:
    if data.random() < nonfinite:
        return float(data.choice([np.inf, -np.inf, np.nan]))
    # Rounded to one decimal so equal losses (and the stable sort) are common.
    return float(np.round(x.sum() + data.normal(), 1))


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    dim=st.integers(1, 8),
    gamma=st.sampled_from([0.15, 1.0 / 3.0, 0.5, 0.9]),
    min_points=st.one_of(st.none(), st.integers(1, 4)),
    random_fraction=st.sampled_from([0.0, 1.0 / 3.0]),
    nonfinite=st.sampled_from([0.0, 0.1, 0.5]),
    steps=_STEPS,
)
# More than 256 bad points: the subsample is drawn on every proposal.
@example(
    seed=1, dim=3, gamma=0.15, min_points=None, random_fraction=0.0, nonfinite=0.1,
    steps=[(320, 2), (1, 2), (0, 2), (40, 1)],
)
# More than 256 good points (the cap) and more than 256 bad ones.
@example(
    seed=2, dim=8, gamma=0.5, min_points=2, random_fraction=1.0 / 3.0, nonfinite=0.0,
    steps=[(600, 3), (2, 3)],
)
# Many non-finite losses, a few observations between proposals.
@example(
    seed=3, dim=1, gamma=0.15, min_points=1, random_fraction=0.0, nonfinite=0.5,
    steps=[(7, 1)] * 8,
)
def test_cached_sampler_matches_the_refitting_one(
    seed, dim, gamma, min_points, random_fraction, nonfinite, steps
):
    options = dict(gamma=gamma, min_points=min_points, random_fraction=random_fraction)
    cached = TPESampler(dim, **options)
    oracle = reference.TPESampler(dim, **options)
    data = np.random.default_rng(seed)
    rng, oracle_rng = np.random.default_rng(seed + 1), np.random.default_rng(seed + 1)
    for num_observe, num_propose in steps:
        for _ in range(num_observe):
            x = data.random(dim)
            loss = _loss(data, x, nonfinite)
            cached.observe(x, loss)
            oracle.observe(x, loss)
        for _ in range(num_propose):
            proposal = cached.propose(rng)
            expected = oracle.propose(oracle_rng)
            assert proposal.tobytes() == expected.tobytes()
            assert cached.last_proposal_was_model == oracle.last_proposal_was_model
            assert rng.bit_generator.state == oracle_rng.bit_generator.state


def test_the_fit_lasts_until_the_next_observation():
    data = np.random.default_rng(0)
    sampler = TPESampler(2, min_points=2, random_fraction=0.0)
    for _ in range(20):
        x = data.random(2)
        sampler.observe(x, float(x.sum()))
    rng = np.random.default_rng(1)
    sampler.propose(rng)
    fit = sampler._fit
    assert fit is not None
    sampler.propose(rng)
    assert sampler._fit is fit
    sampler.observe(data.random(2), 0.5)
    assert sampler._fit is None
