"""Deterministic state (de)serialization helpers for schedulers and searchers.

Everything a :class:`~repro.study.Study` snapshot or journal replay needs to
reconstruct boils down to three primitives:

* **rng state** — numpy ``Generator`` objects expose their bit generator's
  full state as a JSON-able dict of (big) integers; restoring it resumes the
  exact draw sequence.
* **trial state** — configs are canonicalised through the same
  :func:`~repro.objectives.base.config_payload` encoder the objectives use
  to seed noise, so a config that round-trips through JSON hashes (and
  therefore trains) identically.
* **id cursors** — :class:`~repro.core.types.IdAllocator` is a plain integer.

These helpers are deliberately dependency-free: they produce plain dicts of
JSON-safe values, leaving the actual encoding to the journal/snapshot layer.
"""

from __future__ import annotations

import json
from typing import Any

import numpy as np

from ..objectives.base import config_payload
from .types import Measurement, Trial, TrialStatus

__all__ = [
    "config_state",
    "rng_state",
    "set_rng_state",
    "trial_from_state",
    "trial_state",
]


_PLAIN_TYPES = frozenset((str, int, float, bool, type(None)))


def config_state(config: dict[str, Any]) -> dict[str, Any]:
    """Canonical JSON-safe form of a config (numpy scalars unwrapped).

    **Read-only contract:** a config of plain Python scalars — the
    overwhelmingly common case, every ``space.sample`` draw — already *is*
    its canonical form (encode-then-decode of plain scalars is the identity,
    and canonical encoders re-sort keys themselves), so it is returned
    as-is, not copied: callers encode or read the result and never write to
    it.  Anything handed outside the library is copied first
    (:func:`trial_state`).  Exact ``type`` checks keep numpy scalars (which
    subclass Python's ``float``/``int``) on the canonicalising path, which
    returns a fresh plain dict.
    """
    for value in config.values():
        if type(value) not in _PLAIN_TYPES:
            return json.loads(config_payload(config))
    return config


def rng_state(rng: np.random.Generator) -> dict[str, Any]:
    """Capture a generator's bit-generator state (JSON-safe: ints and strs)."""
    return {
        "bit_generator": type(rng.bit_generator).__name__,
        "state": rng.bit_generator.state,
    }


def set_rng_state(rng: np.random.Generator, state: dict[str, Any]) -> None:
    """Restore a state captured by :func:`rng_state` into ``rng``.

    The bit generator type must match — silently feeding PCG64 state into a
    Philox generator would corrupt the stream instead of resuming it.
    """
    expected = state["bit_generator"]
    actual = type(rng.bit_generator).__name__
    if expected != actual:
        raise ValueError(f"rng state is for bit generator {expected!r}, generator has {actual!r}")
    rng.bit_generator.state = state["state"]


def trial_state(trial: Trial) -> dict[str, Any]:
    """Serialize one trial row: config, status, and measurement history."""
    return {
        "trial_id": trial.trial_id,
        "config": dict(config_state(trial.config)),
        "status": trial.status.value,
        "resource": trial.resource,
        "measurements": [[m.resource, m.loss, m.time] for m in trial.measurements],
        "rung": trial.rung,
        "bracket": trial.bracket,
        "metadata": dict(trial.metadata),
    }


def trial_from_state(state: dict[str, Any]) -> Trial:
    """Rebuild a :class:`Trial` from :func:`trial_state` output."""
    trial_id = int(state["trial_id"])
    trial = Trial(
        trial_id=trial_id,
        config=dict(state["config"]),
        status=TrialStatus(state["status"]),
        resource=float(state["resource"]),
        rung=int(state["rung"]),
        bracket=int(state["bracket"]),
        metadata=dict(state["metadata"]),
    )
    trial.measurements = [
        Measurement(trial_id=trial_id, resource=resource, loss=loss, time=time)
        for resource, loss, time in state["measurements"]
    ]
    return trial
