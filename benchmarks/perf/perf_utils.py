"""Timing, calibration, and schema helpers for the perf gates.

The gates compare runs across machines of very different speeds, so every
throughput and duration is *normalised* by a calibration score — a fixed
pure-Python workload timed on the same machine in the same process — before
it is compared against the committed baseline.  Normalised throughputs are
dimensionless ("how many simulator events per calibration op") and roughly
portable between a laptop and a CI runner, which raw ops/sec are not.
"""

from __future__ import annotations

import statistics
import time
from typing import Any, Callable, Sequence

__all__ = [
    "SCHEMA_VERSION",
    "benchmark_entry",
    "calibrate",
    "time_call",
]

#: Bump when the BENCH_perf.json layout changes incompatibly.
#: v3: every entry is a measured median with its spread (``meta.rounds``,
#: ``meta.iqr``) — an entry is present or absent, never null — and gated
#: entries may carry a hard ``meta.floor`` / ``meta.ceiling`` on the raw
#: value in addition to the baseline-ratio check.
SCHEMA_VERSION = 3

#: Fewest rounds an entry may be the median of: below five the quartiles
#: are the extremes and the band says nothing.
MIN_ROUNDS = 5


def time_call(fn: Callable[[], Any], *, repeats: int = 1) -> tuple[float, Any]:
    """(best wall-clock seconds, last result) of ``fn`` over ``repeats`` runs.

    Best-of-k damps scheduler jitter; the result is returned so callers can
    derive the work count (events, jobs) from the same run they timed.
    """
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - start
        best = min(best, elapsed)
    return best, result


def calibrate(*, iterations: int = 2_000_000, repeats: int = 3) -> float:
    """Calibration ops/sec: a fixed pure-Python workload on this machine.

    The loop mixes integer arithmetic, a dict store, and a method call —
    the same instruction mix the simulator hot path spends its time on —
    so its throughput tracks how fast this interpreter runs our kind of
    code.
    """

    def workload() -> int:
        acc = 0
        store: dict[int, int] = {}
        for i in range(iterations):
            acc = (acc + i * 31) & 0xFFFFFFFF
            if i & 1023 == 0:
                store[i] = acc
        return acc + len(store)

    seconds, _ = time_call(workload, repeats=repeats)
    return iterations / seconds


def benchmark_entry(
    per_round: Sequence[float],
    unit: str,
    *,
    higher_is_better: bool,
    calibration_ops_per_s: float,
    meta: dict[str, Any] | None = None,
) -> dict[str, Any]:
    """One BENCH_perf.json benchmark record: median, spread, normalised score.

    ``value`` is the median of ``per_round`` and ``meta.iqr`` the distance
    between the rounds' quartiles — the band ``check_regression.py`` holds
    floors and ceilings against.  ``normalized`` is always
    *higher-is-better*: throughputs divide by the calibration score,
    durations invert first.  The baseline-ratio check compares only this
    field.
    """
    if len(per_round) < MIN_ROUNDS:
        raise ValueError(f"an entry needs >= {MIN_ROUNDS} rounds, got {len(per_round)}")
    value = statistics.median(per_round)
    if value <= 0:
        raise ValueError(f"benchmark value must be positive, got {value}")
    q1, _, q3 = statistics.quantiles(per_round, n=4)
    if higher_is_better:
        normalized = value / calibration_ops_per_s
    else:
        normalized = (1.0 / value) * calibration_ops_per_s
    return {
        "value": round(value, 4),
        "unit": unit,
        "higher_is_better": higher_is_better,
        "normalized": normalized,
        "meta": {**(meta or {}), "rounds": len(per_round), "iqr": round(q3 - q1, 4)},
    }
