"""Canonical compact JSON encoding for the journal and telemetry write paths.

Both persistence surfaces of this repo — study journals
(:mod:`repro.study.journal`) and telemetry JSONL sinks
(:mod:`repro.telemetry.sinks`) — pin their bytes to
``json.dumps(obj, sort_keys=True, separators=(",", ":"), default=unwrap)``.
That canonical form is load-bearing: journals are byte-compared across
resume/replay, telemetry streams across seeded runs.  It is also hot: one
journal line per ask/tell and one sink line per telemetry event.

:func:`encode_canonical` produces exactly those bytes from json's C encoder,
built once at import.  The module is dependency-free so both ``study`` and
``telemetry`` can import it without cycles.
"""

from __future__ import annotations

from json.encoder import c_make_encoder, encode_basestring_ascii
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


#: json's C encoder with the canonical options, which ``json.JSONEncoder.encode``
#: would build anew per call.  ``markers=None``: records are trees, and a dict kept
#: across calls would report false cycles after a failed encode; a circular value
#: raises ``RecursionError``.
_encode = c_make_encoder(None, unwrap, encode_basestring_ascii, None, ":", ",", True, False, True)


def encode_canonical(obj: Any) -> str:
    """``json.dumps(obj, sort_keys=True, separators=(",", ":"), default=unwrap)``."""
    return "".join(_encode(obj, 0))
