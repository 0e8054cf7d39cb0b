"""The config codec as it stood before PR 23, verbatim: the differential oracle.

``config_state`` / ``config_payload`` (and the helpers they call) copied from
``core/serialization.py`` and ``objectives/base.py`` at commit 116ed2f, with
their two process-global, ``id()``-keyed caches.  ``test_config_codec.py``
holds the cache-free codec to these on bytes, seeds and decoded values.
"""

from __future__ import annotations

import hashlib
import json
from json.encoder import encode_basestring_ascii as _escape
from typing import Any

Config = dict[str, Any]

# Interned canonical encodings, keyed by config identity.  A configuration
# dict is created once (at sampling) and then encoded repeatedly — journal
# ask records at every rung, surrogate profile/noise seeds, scheduler
# snapshots — so the canonicalisation is paid once and shared.  The config
# reference in the value keeps the id stable (and guards against reuse);
# the cache is cleared wholesale at a size cap to bound memory across many
# studies in one process.
_PAYLOAD_CACHE: dict[int, tuple[Config, bytes]] = {}
_PAYLOAD_CACHE_CAP = 65536


def config_payload(config: Config) -> bytes:
    """The canonical JSON encoding of a configuration (interned).

    Callers that derive several seeds from the same configuration (e.g. a
    profile seed and a noise seed) encode once and pass the payload to
    :func:`config_seed` — the JSON canonicalisation dominates the hashing.
    Repeat calls for the *same config object* return the cached bytes;
    configurations are treated as immutable throughout.
    """
    key = id(config)
    hit = _PAYLOAD_CACHE.get(key)
    if hit is not None and hit[0] is config:
        return hit[1]
    payload = _encode_plain(config)
    if payload is None:
        payload = json.dumps(
            {k: _canonical(v) for k, v in config.items()}, sort_keys=True
        ).encode()
    if len(_PAYLOAD_CACHE) >= _PAYLOAD_CACHE_CAP:
        _PAYLOAD_CACHE.clear()
    _PAYLOAD_CACHE[key] = (config, payload)
    return payload


def config_seed(config: Config, salt: int = 0, *, payload: bytes | None = None) -> int:
    """A stable 64-bit seed derived from a configuration's contents.

    Uses a canonical JSON encoding hashed with blake2b, so the same
    configuration yields the same seed across processes and schedulers
    (Python's built-in ``hash`` is salted per process and unusable here).
    ``payload`` short-circuits the encoding when the caller already holds
    :func:`config_payload`'s output for this configuration.
    """
    if payload is None:
        payload = config_payload(config)
    digest = hashlib.blake2b(payload, digest_size=8, salt=salt.to_bytes(8, "little"))
    return int.from_bytes(digest.digest(), "little")


_INF = float("inf")
_NINF = float("-inf")


def _encode_plain(config: Config) -> bytes | None:
    """Canonical encoding fast path, or ``None`` if any value needs json.

    Byte-identical to ``json.dumps(config, sort_keys=True).encode()`` for
    dicts of plain Python scalars: ``repr`` of a float/int is exactly what
    the C encoder emits (shortest-repr doubles, decimal ints), the default
    separators are ``", "`` / ``": "``, and string escaping reuses json's
    own C ``encode_basestring_ascii``.  Exact ``type`` checks (never
    ``isinstance``) route numpy scalars — which subclass Python numerics but
    encode via ``.item()`` — to the slow path, as well as non-finite floats
    (json spells those ``Infinity``/``NaN``).  This is the hot path: one
    fresh config per sampled trial, encoded for journal records and
    surrogate seeds, and ``json.dumps`` overhead dominated the simulated
    benchmarks' profile.
    """
    parts = []
    for k in sorted(config):
        v = config[k]
        tv = type(v)
        if tv is float:
            if v != v or v == _INF or v == _NINF:
                return None
            s = repr(v)
        elif tv is int:
            s = repr(v)
        elif tv is str:
            s = _escape(v)
        elif tv is bool:
            s = "true" if v else "false"
        elif v is None:
            s = "null"
        else:
            return None
        parts.append(_escape(k) + ": " + s)
    return ("{" + ", ".join(parts) + "}").encode()


def _canonical(value: Any) -> Any:
    """Normalise numpy scalars so json encoding is stable."""
    if hasattr(value, "item"):
        return value.item()
    return value


# Decoded canonical forms, interned by config identity like the payload
# cache in objectives.base: the same config is re-stated at every rung's
# ask record, in trial snapshots, and in trial-started telemetry.  Treat
# returned dicts as immutable — they are shared.
_STATE_CACHE: dict[int, tuple[dict[str, Any], dict[str, Any]]] = {}
_STATE_CACHE_CAP = 65536
_PLAIN_TYPES = frozenset((str, int, float, bool, type(None)))


def config_state(config: dict[str, Any]) -> dict[str, Any]:
    """Canonical JSON-safe form of a config (numpy scalars unwrapped).

    Interned per config object, and configs of plain Python scalars — the
    overwhelmingly common case, every ``space.sample`` draw — skip the
    JSON round-trip entirely: encode-then-decode of plain scalars is the
    identity (canonical encoders re-sort keys themselves, so key order is
    immaterial).  Exact ``type`` checks keep numpy scalars (which subclass
    Python's ``float``/``int``) on the canonicalising path.
    """
    key = id(config)
    hit = _STATE_CACHE.get(key)
    if hit is not None and hit[0] is config:
        return hit[1]
    for value in config.values():
        if type(value) not in _PLAIN_TYPES:
            state = json.loads(config_payload(config))
            break
    else:
        state = dict(config)
    if len(_STATE_CACHE) >= _STATE_CACHE_CAP:
        _STATE_CACHE.clear()
    _STATE_CACHE[key] = (config, state)
    return state
