"""The cache-free config codec against the cached one it replaced.

``reference_config_codec`` is ``config_state`` / ``config_payload`` as they
stood before PR 23 (two process-global, ``id()``-keyed caches).  Every
byte a config reaches — the journal's ask record, the ``trial_started``
telemetry line, both blake2b seeds — must come out the same without them,
and a config that went through the codec must be collectable afterwards.
"""

from __future__ import annotations

import gc
import io
import weakref

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_config_codec as reference
from repro.core.serialization import config_state
from repro.objectives.base import config_payload, config_seed
from repro.study import encode_record
from repro.telemetry import EventKind, JSONLSink, TelemetryHub

_PLAIN = (
    st.floats(allow_nan=False, allow_infinity=False)
    | st.integers(-(2**70), 2**70)
    | st.booleans()
    | st.none()
    | st.text(max_size=12)
)
_NON_FINITE = st.sampled_from([float("inf"), float("-inf"), float("nan")])
_NUMPY = (
    st.floats(allow_nan=False, width=32).map(np.float32)
    | st.floats(allow_nan=False).map(np.float64)
    | st.integers(-(2**31), 2**31 - 1).map(np.int32)
    | st.integers(-(2**63), 2**63 - 1).map(np.int64)
    | st.booleans().map(np.bool_)
)
_KEYS = st.text(min_size=1, max_size=8)

plain_configs = st.dictionaries(_KEYS, _PLAIN, max_size=8)
any_configs = st.dictionaries(_KEYS, _PLAIN | _NON_FINITE | _NUMPY, max_size=8)


def _ask_line(state: dict) -> str:
    return encode_record({"kind": "ask", "job_id": 0, "trial_id": 0, "config": state})


def _trial_started_line(state: dict) -> str:
    stream = io.StringIO()
    TelemetryHub([JSONLSink(stream)]).emit(EventKind.TRIAL_STARTED, trial_id=0, config=state)
    return stream.getvalue()


@settings(max_examples=300, deadline=None)
@given(config=any_configs)
def test_same_bytes_and_seeds_as_the_cached_codec(config):
    assert config_payload(config) == reference.config_payload(config)
    for salt in (0, 1):
        assert config_seed(config, salt) == reference.config_seed(config, salt)
    state, expected = config_state(config), reference.config_state(config)
    assert _ask_line(state) == _ask_line(expected)
    assert _trial_started_line(state) == _trial_started_line(expected)
    assert {k: type(v) for k, v in state.items()} == {k: type(v) for k, v in expected.items()}


@settings(max_examples=100, deadline=None)
@given(config=plain_configs)
def test_a_plain_config_is_its_own_canonical_form(config):
    assert config_state(config) is config


@settings(max_examples=100, deadline=None)
@given(config=any_configs, extra=_NUMPY)
def test_a_numpy_valued_config_comes_back_as_a_fresh_plain_dict(config, extra):
    config["np"] = extra
    state = config_state(config)
    assert state is not config and type(state) is dict
    assert all(type(v) in (str, int, float, bool, type(None)) for v in state.values())
    assert state["np"] == extra.item()


class _Config(dict):
    """A dict that can carry a weak reference (plain dicts cannot)."""


def test_the_codec_keeps_no_config_alive():
    for values in ({"lr": 0.1, "layers": 3}, {"lr": np.float64(0.1), "layers": np.int64(3)}):
        config = _Config(values)
        config_state(config), config_payload(config), config_seed(config, 1)
        gone = weakref.ref(config)
        del config
        gc.collect()
        assert gone() is None
