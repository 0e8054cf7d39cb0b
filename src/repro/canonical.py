"""Canonical compact JSON encoding for the journal and telemetry write paths.

Both persistence surfaces of this repo — study journals
(:mod:`repro.study.journal`) and telemetry JSONL sinks
(:mod:`repro.telemetry.sinks`) — pin their bytes to
``json.dumps(obj, sort_keys=True, separators=(",", ":"), default=unwrap)``.
That canonical form is load-bearing: journals are byte-compared across
resume/replay, telemetry streams across seeded runs.  It is also hot: one
journal line per ask/tell and one sink line per telemetry event.

:func:`encode_canonical` is the ``encode`` of one ``json.JSONEncoder``
with exactly those options, built once at import instead of on every
``json.dumps`` call; json's C encoder does the work.  The module is
dependency-free so both ``study`` and ``telemetry`` can import it without
cycles.
"""

from __future__ import annotations

import json
from typing import Any

__all__ = ["encode_canonical"]


def unwrap(value: Any) -> Any:
    """JSON stand-in for a value json cannot encode.

    ``.item()`` carriers (numpy scalars) become their Python value, and
    anything else its ``str``.
    """
    item = getattr(value, "item", None)
    if callable(item):
        return item()
    return str(value)


#: ``encode_canonical(obj)`` is byte-identical to ``json.dumps(obj,
#: sort_keys=True, separators=(",", ":"), default=unwrap)``.
encode_canonical = json.JSONEncoder(
    sort_keys=True, separators=(",", ":"), default=unwrap
).encode
