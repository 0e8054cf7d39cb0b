"""Prometheus text exposition of a metrics registry, and its strict validator.

:func:`render_prometheus` is byte-stable (sorted families, sorted samples,
stable float formatting); :func:`validate_exposition` is its strict
inverse, returning a list of violations.  The series-key helpers define
the one ``name{label="value"}`` syntax shared by registry keys and
exposition sample names.  Everything here works on snapshot dicts, so the
ops CLI can render a scraped JSONL line without a live registry.
"""

from __future__ import annotations

import math
import re
from typing import Any

__all__ = ["render_prometheus", "validate_exposition"]

_METRIC_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
LABEL_NAME_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")


def _escape_label_value(value: str) -> str:
    return value.replace("\\", "\\\\").replace("\n", "\\n").replace('"', '\\"')


def _escape_help(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def series_key(name: str, labels: dict[str, Any] | None) -> str:
    """Mangle ``name`` + sorted labels into the registry key / sample name."""
    if not labels:
        return name
    inner = ",".join(
        f'{key}="{_escape_label_value(str(value))}"' for key, value in sorted(labels.items())
    )
    return f"{name}{{{inner}}}"


def split_series_key(key: str) -> tuple[str, str]:
    """Inverse of :func:`series_key`: ``(base name, inner label string)``."""
    if key.endswith("}"):
        brace = key.find("{")
        if brace >= 0:
            return key[:brace], key[brace + 1 : -1]
    return key, ""


_LABEL_PAIR_RE = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:\\.|[^"\\])*)"')


def parse_label_string(inner: str) -> dict[str, str]:
    return {match.group(1): match.group(2) for match in _LABEL_PAIR_RE.finditer(inner)}


def format_value(value: float) -> str:
    """Stable float formatting: integers bare, else shortest round-trip."""
    value = float(value)
    if math.isnan(value):
        return "NaN"
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if value.is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


_TYPE_BY_SECTION = {"counters": "counter", "gauges": "gauge", "histograms": "histogram"}
_EXPO_TYPE = {"counter": "counter", "gauge": "gauge", "histogram": "summary"}


def render_prometheus(source: Any) -> str:
    """Byte-stable Prometheus text exposition of a registry (or snapshot).

    ``source`` is a :class:`~repro.telemetry.MetricsRegistry` (``snapshot()``
    is taken, which runs collectors) or an already-taken snapshot dict — the
    form the :class:`~repro.telemetry.runtime.RuntimeScraper` writes to
    JSONL, which is how the CLI renders ``--prom`` offline.  Families are
    emitted in sorted order, samples in sorted order within each family,
    histograms as Prometheus *summaries* (``quantile`` samples plus
    ``_sum``/``_count``).  Rendering the same run twice produces identical
    bytes.
    """
    snap = source.snapshot() if hasattr(source, "snapshot") else source
    families_meta = snap.get("families", {})

    # family base name -> {"type", "help", "samples": [(sort key, line)]}
    families: dict[str, dict[str, Any]] = {}

    def family_for(base: str, section: str) -> dict[str, Any]:
        family = families.get(base)
        if family is None:
            meta = families_meta.get(base)
            if meta is None:
                meta = {"type": _TYPE_BY_SECTION[section], "help": ""}
            families[base] = family = {
                "type": meta["type"],
                "help": meta.get("help", ""),
                "samples": [],
            }
        return family

    for section in ("counters", "gauges"):
        for key, value in snap.get(section, {}).items():
            base, _ = split_series_key(key)
            family = family_for(base, section)
            family["samples"].append((key, f"{key} {format_value(value)}"))

    for key, summary in snap.get("histograms", {}).items():
        base, inner = split_series_key(key)
        family = family_for(base, "histograms")
        labels = parse_label_string(inner)
        count = summary.get("count", 0)
        if count:
            for rank, quantile in (("p50", "0.5"), ("p90", "0.9"), ("p99", "0.99")):
                qkey = series_key(base, {**labels, "quantile": quantile})
                family["samples"].append(
                    (f"{key}~0q{quantile}", f"{qkey} {format_value(summary[rank])}")
                )
        total = summary.get("sum", 0.0)
        sum_key = series_key(f"{base}_sum", labels or None)
        count_key = series_key(f"{base}_count", labels or None)
        family["samples"].append((f"{key}~1sum", f"{sum_key} {format_value(total)}"))
        family["samples"].append((f"{key}~2count", f"{count_key} {format_value(count)}"))

    lines: list[str] = []
    for base in sorted(families):
        family = families[base]
        if family["help"]:
            lines.append(f"# HELP {base} {_escape_help(family['help'])}")
        lines.append(f"# TYPE {base} {_EXPO_TYPE[family['type']]}")
        for _, line in sorted(family["samples"]):
            lines.append(line)
    return "\n".join(lines) + "\n" if lines else ""


_VALID_EXPO_TYPES = {"counter", "gauge", "summary", "histogram", "untyped"}
_SAMPLE_RE = re.compile(
    r"^([a-zA-Z_:][a-zA-Z0-9_:]*)"  # metric name
    r"(?:\{((?:[a-zA-Z_][a-zA-Z0-9_]*=\"(?:\\.|[^\"\\])*\")"
    r"(?:,[a-zA-Z_][a-zA-Z0-9_]*=\"(?:\\.|[^\"\\])*\")*)?\})?"  # optional labels
    r" (\S+)$"  # value
)


def validate_exposition(text: str) -> list[str]:
    """Strictly parse Prometheus text exposition; return a list of violations.

    Checks the invariants :func:`render_prometheus` promises: every sample
    belongs to a ``# TYPE``-declared family, families appear exactly once
    and in sorted order, label strings are well-formed, values parse,
    counters are non-negative, no sample name (labels included) repeats,
    and the text ends with a newline.  An empty list means the exposition
    is valid.
    """
    violations: list[str] = []
    if not text:
        return ["empty exposition"]
    if not text.endswith("\n"):
        violations.append("exposition must end with a newline")
    typed: dict[str, str] = {}
    last_family: str | None = None
    current_family: str | None = None
    seen_samples: set[str] = set()
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line:
            violations.append(f"line {lineno}: blank line")
            continue
        if line.startswith("# TYPE "):
            parts = line.split(" ")
            if len(parts) != 4:
                violations.append(f"line {lineno}: malformed TYPE line")
                continue
            _, _, name, kind = parts
            if not _METRIC_NAME_RE.match(name):
                violations.append(f"line {lineno}: invalid family name {name!r}")
            if kind not in _VALID_EXPO_TYPES:
                violations.append(f"line {lineno}: invalid type {kind!r} for {name}")
            if name in typed:
                violations.append(f"line {lineno}: duplicate TYPE for family {name}")
            if last_family is not None and name <= last_family:
                violations.append(
                    f"line {lineno}: family {name} out of sorted order (after {last_family})"
                )
            typed[name] = kind
            last_family = name
            current_family = name
            continue
        if line.startswith("# HELP "):
            parts = line.split(" ", 3)
            if len(parts) < 4 or not _METRIC_NAME_RE.match(parts[2]):
                violations.append(f"line {lineno}: malformed HELP line")
            continue
        if line.startswith("#"):
            continue  # free-form comment
        match = _SAMPLE_RE.match(line)
        if match is None:
            violations.append(f"line {lineno}: malformed sample {line!r}")
            continue
        name, _, value = match.groups()
        try:
            parsed = float(value)
        except ValueError:
            violations.append(f"line {lineno}: unparseable value {value!r}")
            continue
        family = current_family
        if family is None:
            violations.append(f"line {lineno}: sample {name} before any # TYPE")
            continue
        base_ok = name == family or (
            typed.get(family) in ("summary", "histogram")
            and name in (f"{family}_sum", f"{family}_count", f"{family}_bucket")
        )
        if not base_ok:
            violations.append(
                f"line {lineno}: sample {name} does not belong to family {family}"
            )
            continue
        sample_key = line.rsplit(" ", 1)[0]
        if sample_key in seen_samples:
            violations.append(f"line {lineno}: duplicate sample {sample_key}")
        seen_samples.add(sample_key)
        if typed.get(family) == "counter" and not math.isnan(parsed) and parsed < 0:
            violations.append(f"line {lineno}: counter {name} is negative ({value})")
    return violations
