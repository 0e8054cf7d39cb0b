"""Tests for the unit-cube encoder used by model-based searchers."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.searchspace import (
    Choice,
    IntUniform,
    LogUniform,
    QUniform,
    SearchSpace,
    Uniform,
    UnitCubeEncoder,
)


def test_encode_shape_and_range(mixed_space, rng):
    enc = UnitCubeEncoder(mixed_space)
    x = enc.encode(mixed_space.sample(rng))
    assert x.shape == (4,)
    assert np.all(x >= 0.0) and np.all(x <= 1.0)


def test_encode_many(mixed_space, rng):
    enc = UnitCubeEncoder(mixed_space)
    configs = mixed_space.sample_batch(7, rng)
    x = enc.encode_many(configs)
    assert x.shape == (7, 4)
    assert enc.encode_many([]).shape == (0, 4)


def test_decode_shape_check(mixed_space):
    enc = UnitCubeEncoder(mixed_space)
    with pytest.raises(ValueError):
        enc.decode(np.zeros(3))


def test_round_trip_continuous_exact(mixed_space, rng):
    enc = UnitCubeEncoder(mixed_space)
    config = mixed_space.sample(rng)
    out = enc.decode(enc.encode(config))
    assert out["lr"] == pytest.approx(config["lr"], rel=1e-9)
    assert out["momentum"] == pytest.approx(config["momentum"], abs=1e-12)


def test_round_trip_discrete_exact(mixed_space, rng):
    enc = UnitCubeEncoder(mixed_space)
    for _ in range(50):
        config = mixed_space.sample(rng)
        out = enc.decode(enc.encode(config))
        assert out["width"] == config["width"]
        assert out["batch"] == config["batch"]


def test_sample_unit_shape(mixed_space, rng):
    enc = UnitCubeEncoder(mixed_space)
    x = enc.sample_unit(10, rng)
    assert x.shape == (10, 4)
    assert np.all((0 <= x) & (x <= 1))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**31 - 1))
def test_round_trip_is_projection(seed):
    """decode(encode(.)) is idempotent: a second round trip changes nothing."""
    from repro.searchspace import Choice, IntUniform, LogUniform, SearchSpace, Uniform

    mixed_space = SearchSpace(
        {
            "lr": LogUniform(1e-5, 1.0),
            "width": IntUniform(4, 64),
            "momentum": Uniform(0.0, 1.0),
            "batch": Choice([16, 32, 64, 128]),
        }
    )
    enc = UnitCubeEncoder(mixed_space)
    config = mixed_space.sample(np.random.default_rng(seed))
    once = enc.decode(enc.encode(config))
    twice = enc.decode(enc.encode(once))
    assert once == twice


# ------------------------------------------- prebound maps vs per-name formulas


def _reference_to_unit(dom, value):
    """Each domain's ``to_unit``, spelled out per call (logs recomputed)."""
    if isinstance(dom, Choice):
        return dom.values.index(dom.clip(value)) / (len(dom.values) - 1)
    if isinstance(dom, LogUniform):
        lo, hi = math.log(dom.low), math.log(dom.high)
        return (math.log(dom.clip(value)) - lo) / (hi - lo)
    return (dom.clip(value) - dom.low) / (dom.high - dom.low)


def _reference_from_unit(dom, u):
    u = min(max(u, 0.0), 1.0)
    if isinstance(dom, Choice):
        return dom.values[int(round(u * (len(dom.values) - 1)))]
    if isinstance(dom, LogUniform):
        lo, hi = math.log(dom.low), math.log(dom.high)
        return dom.clip(math.exp(lo + (hi - lo) * u))
    if isinstance(dom, Uniform):
        return float(dom.low + (dom.high - dom.low) * u)
    return dom.clip(dom.low + (dom.high - dom.low) * u)


def _bits(value):
    return type(value).__name__, value.hex() if isinstance(value, float) else value


_LOW = st.floats(-1e3, 1e3, allow_nan=False)
_SPAN = st.floats(1e-3, 1e3, allow_nan=False)
_DOMAINS = st.one_of(
    st.builds(lambda lo, span: Uniform(lo, lo + span), _LOW, _SPAN),
    st.builds(lambda lo, r: LogUniform(lo, lo * r), st.floats(1e-8, 1e2), st.floats(1.5, 1e6)),
    st.builds(lambda lo, k: IntUniform(lo, lo + k), st.integers(-100, 100), st.integers(1, 1000)),
    st.builds(lambda lo, s, f: QUniform(lo, lo + s, s * f), _LOW, _SPAN, st.floats(0.01, 0.5)),
    st.builds(
        Choice,
        st.lists(st.integers(-50, 50) | st.text(max_size=3), min_size=2, max_size=6, unique=True),
    ),
)
_UNITS = st.sampled_from([0.0, 1.0, -0.0, -0.25, 1.25]) | st.floats(-0.5, 1.5)


@settings(max_examples=80, deadline=None)
@given(
    domains=st.lists(_DOMAINS, min_size=1, max_size=6),
    seed=st.integers(0, 2**31 - 1),
    units=st.lists(_UNITS, min_size=6, max_size=6),
    data=st.data(),
)
def test_prebound_maps_are_bit_equal_to_the_per_name_formulas(domains, seed, units, data):
    """encode/decode and the hoisted LogUniform logs change no bit of any value."""
    space = SearchSpace({f"p{i}": dom for i, dom in enumerate(domains)})
    enc = UnitCubeEncoder(space)
    rng = np.random.default_rng(seed)
    # Endpoints and values outside the domain (to_unit clips them first).
    edges = {}
    for name, dom in zip(space, domains):
        if isinstance(dom, Choice):
            edges[name] = data.draw(st.sampled_from(dom.values))
        else:
            edges[name] = data.draw(st.sampled_from([dom.low, dom.high, dom.low - 1, dom.high + 1]))
    for config in (space.sample(rng), space.sample(rng), edges):
        expected = np.array(
            [_reference_to_unit(space[name], config[name]) for name in space.names], dtype=float
        )
        assert enc.encode(config).tobytes() == expected.tobytes()
    x = units[: len(domains)]
    expected = {name: _bits(_reference_from_unit(space[name], u)) for name, u in zip(space, x)}
    for vector in (x, np.array(x)):
        assert {name: _bits(v) for name, v in enc.decode(vector).items()} == expected
    for dom, u in zip(domains, x):
        assert _bits(dom.from_unit(u)) == _bits(_reference_from_unit(dom, u))
