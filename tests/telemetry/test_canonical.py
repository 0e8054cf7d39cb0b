"""The canonical encoder is byte-identical to json.dumps.

`repro.canonical.encode_canonical` stands in for ``json.dumps(obj,
sort_keys=True, separators=(",", ":"), default=unwrap)`` on the two hot
write paths (journal records, JSONL telemetry events).  These tests pin its
options against that call: a hypothesis fuzz over nested JSON-ish values,
exotic edge cases (non-finite floats, numpy scalars, non-string keys), and
the ``str`` fallback.  Real streams are pinned byte for byte elsewhere: the
golden traces, ``tests/study/head_specs`` and the crash-resume check.
"""

from __future__ import annotations

import json
from typing import Any

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from repro.canonical import encode_canonical


def _json_default(value: Any) -> Any:
    item = getattr(value, "item", None)
    if callable(item):
        return item()
    return str(value)


def reference(obj: Any) -> str:
    """The exact call both write paths historically made."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), default=_json_default)


# JSON-ish values: scalars (including awkward floats and non-ASCII /
# control-character strings) nested under dicts and lists.
_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(10**30), max_value=10**30),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(),
)
_values = st.recursive(
    _scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.dictionaries(st.text(max_size=10), children, max_size=5),
    ),
    max_leaves=20,
)


@given(_values)
def test_fuzz_matches_json_dumps(value):
    got = encode_canonical(value)
    want = reference(value)
    if want == got:
        return
    # NaN never compares equal post-parse; byte equality above is the real
    # check and this branch only runs on a genuine mismatch.
    raise AssertionError(f"{got!r} != {want!r} for {value!r}")


def test_edge_cases_match_json_dumps():
    cases = [
        {},
        [],
        (),
        {"": ""},
        {"a": {"b": {"c": [1, 2.5, None, True, False]}}},
        {"nan": float("nan"), "inf": float("inf"), "ninf": float("-inf")},
        {"tiny": 5e-324, "big": 1.7976931348623157e308, "neg0": -0.0},
        {"unicode": "héllo ☃ \x00\n\t", "quote": '"quoted"', "back": "a\\b"},
        {"sorted": 1, "Sorted": 2, "SORTED": 3, "_x": 4, "0": 5},
        {"nested_list": [[], [{}], [[1], [2.0, "three"]]]},
        {"numpy_int": np.int64(7), "numpy_float": np.float64(1.5)},
        {"numpy_nested": {"v": np.float32(0.25)}},
        {1: "int key", 2.5: "float key"},
        {"mixed": [np.int32(1), 2, "3"]},
        {"repr_floats": [0.1, 1 / 3, 1e16, 1e-5, 123456789.123456789]},
        {"big_int": 2**200, "neg": -(2**63)},
    ]
    for case in cases:
        assert encode_canonical(case) == reference(case), case


def test_non_serializable_falls_back_to_str():
    class Thing:
        def __str__(self):
            return "thing!"

    assert encode_canonical({"x": Thing()}) == reference({"x": Thing()})

