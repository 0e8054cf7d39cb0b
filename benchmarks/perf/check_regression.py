"""Gate: compare a BENCH_perf.json report against the committed baseline.

Usage::

    python benchmarks/perf/check_regression.py \
        --baseline benchmarks/perf/baseline.json \
        --current BENCH_perf.json [--threshold 2.0] \
        [--markdown trend.md] [--no-gate]

Three independent checks run over every gated benchmark:

* **ratio** — the *normalized* (calibration-scaled, higher-is-better) score
  must not fall below ``baseline / threshold``; the default threshold of 2.0
  tolerates machine noise and CI-runner variance while catching genuine
  slowdowns.
* **floor** — benchmarks carrying ``meta.floor`` (``multiplex_speedup``)
  must keep their *raw* value at or above it, regardless of what the
  baseline recorded.
* **ceiling** — the dual of the floor, for benchmarks whose raw value is a
  cost that must stay *small* (``observability_overhead``: the enabled-probe
  slowdown ratio).

Floors and ceilings are held against the entry's **band**, ``value ±
meta.iqr / 2`` (the median of its rounds and their interquartile spread,
printed for every row).  A bound is *broken* — the gate fails, naming the
benchmark, its band and the bound — only when the whole band lies beyond
it.  A median beyond the bound with the bound still inside the band is
printed ``unresolved`` and does not fail: one run cannot tell that from
noise, and a committed artifact is one run, not the best of several.

Benchmarks whose ``meta.gated`` is ``false`` are reported but never fail the
gate, as are benchmarks present only in the *baseline* (retired benches, or
a partial ``--only`` report).

A gated benchmark present in the *current* report but absent from the
baseline is a clear gate error, not a silent "only in current" row: the
baseline is stale (a new benchmark landed without regenerating it), and
until it is regenerated the gate cannot vouch for that benchmark's ratio.
The failure message says exactly how to fix it.  Malformed entries (missing
the schema's required keys, or a ``null`` where a number belongs) are
likewise reported as named gate errors instead of crashing with a
traceback.

``--markdown FILE`` appends the comparison as a GitHub-flavoured delta table
(for ``$GITHUB_STEP_SUMMARY``); ``--no-gate`` prints everything but always
exits 0 — the CI trend step uses both so the report lands in the job summary
even when the separate gate step fails the build.
"""

from __future__ import annotations

import argparse
import json
import sys


#: Row statuses that fail the gate (the rest are informational).
_FAILING = ("REGRESSION", "BELOW FLOOR", "ABOVE CEILING", "MISSING FROM BASELINE", "MALFORMED")


def load(path: str) -> dict:
    with open(path) as fh:
        report = json.load(fh)
    if "benchmarks" not in report:
        raise SystemExit(f"{path}: not a BENCH_perf.json report (no 'benchmarks' key)")
    return report


def compare(baseline: dict, current: dict, threshold: float) -> tuple[list[dict], list[str]]:
    """Per-benchmark comparison rows plus the list of gate failures.

    Rows carry everything both renderers (console table, markdown table)
    need: the raw band, scores, ratio, and a human-readable status.
    """
    rows: list[dict] = []
    failures: list[str] = []
    names = sorted(set(baseline["benchmarks"]) | set(current["benchmarks"]))
    for name in names:
        base_entry = baseline["benchmarks"].get(name)
        cur_entry = current["benchmarks"].get(name)
        row = dict(name=name, value="—", base=None, cur=None, ratio=None, status="ok")
        rows.append(row)
        try:
            _compare_one(name, base_entry, cur_entry, threshold, row, failures)
        except (KeyError, TypeError) as exc:
            # A malformed entry (missing "value"/"normalized"/"unit", or a
            # null in their place) must name itself in the gate output, not
            # die as a traceback.
            row["status"] = "MALFORMED"
            problem = f"missing required key {exc}" if isinstance(exc, KeyError) else exc
            failures.append(
                f"{name}: report entry is malformed ({problem}) — "
                "regenerate the file with benchmarks/perf/run_perf.py"
            )
    return rows, failures


def _compare_one(
    name: str,
    base_entry: dict | None,
    cur_entry: dict | None,
    threshold: float,
    row: dict,
    failures: list[str],
) -> None:
    """Fill one comparison row; append any gate failure for this benchmark."""
    if cur_entry is None:
        # A benchmark only the baseline knows was retired (or left out by
        # ``--only``): nothing to measure against, never a failure.
        row["status"] = "only in baseline"
        return
    meta = {**(base_entry or {}).get("meta", {}), **cur_entry.get("meta", {})}
    gated = meta.get("gated", True)
    value, unit = cur_entry["value"], cur_entry["unit"]
    half = meta.get("iqr", 0.0) / 2.0
    band = f"{value:.4f} ± {half:.4f} {unit}"
    row.update(cur=cur_entry["normalized"], value=band)
    # Hard bounds on the raw value, independent of the baseline.  ``short``
    # is how far the median lies on the wrong side of its bound.
    broken = False
    for kind, word, bound, sign in (
        ("floor", "below", meta.get("floor"), -1.0),
        ("ceiling", "above", meta.get("ceiling"), 1.0),
    ):
        short = 0.0 if bound is None else sign * (value - bound)
        if short <= 0:
            continue
        if short <= half:
            row["status"] = f"unresolved: {kind} {bound} lies inside the band"
        elif gated:
            broken = True
            row["status"] = f"{word} {kind}".upper()
            failures.append(f"{name}: {band} is wholly {word} its hard {kind} of {bound} {unit}")
        else:
            row["status"] = f"{word} informational {kind} {bound}"
    if base_entry is None:
        # The current report measures a benchmark the baseline has never
        # seen: the committed baseline is stale, and for a gated benchmark
        # the ratio check cannot run.  A broken bound is the stronger signal
        # and keeps the row's status.
        if not gated:
            row["status"] = "only in current (ungated)"
        elif not broken:
            row["status"] = "MISSING FROM BASELINE"
            failures.append(
                f"{name}: present in the current report but missing from the "
                "baseline — the committed baseline is stale.  Regenerate it "
                "(python benchmarks/perf/run_perf.py --quick --output "
                "benchmarks/perf/baseline.json) and commit the result so the "
                "gate can track this benchmark."
            )
        return
    base_score = base_entry["normalized"]
    cur_score = cur_entry["normalized"]
    ratio = cur_score / base_score if base_score else float("inf")
    row.update(base=base_score, ratio=ratio)
    if ratio < 1.0 / threshold:
        if gated and not broken:
            row["status"] = "REGRESSION"
            failures.append(
                f"{name}: normalized {cur_score:.4f} vs baseline "
                f"{base_score:.4f} ({ratio:.2f}x, threshold {1 / threshold:.2f}x)"
            )
        elif not gated:
            row["status"] = "ungated slowdown"


def _fmt(score: float | None) -> str:
    return f"{score:.4f}" if score is not None else "—"


def render_console(rows: list[dict]) -> None:
    print(
        f"{'benchmark':26s} {'value ± iqr/2':>40s} {'baseline':>12s} {'current':>12s} "
        f"{'ratio':>8s}"
    )
    for row in rows:
        ratio = f"{row['ratio']:.2f}" if row["ratio"] is not None else "—"
        note = "" if row["status"] == "ok" else f"  [{row['status']}]"
        print(
            f"{row['name']:26s} {row['value']:>40s} {_fmt(row['base']):>12s} "
            f"{_fmt(row['cur']):>12s} {ratio:>8s}{note}"
        )


def render_markdown(rows: list[dict], threshold: float) -> str:
    """The perf-trend delta table for ``$GITHUB_STEP_SUMMARY``."""
    lines = [
        "## Perf trend vs committed baseline",
        "",
        "Raw value as median ± iqr/2; normalized scores (higher is better); "
        f"gate threshold {threshold}x.",
        "",
        "| benchmark | value | baseline | current | delta | status |",
        "|---|---:|---:|---:|---:|---|",
    ]
    for row in rows:
        status = row["status"]
        delta = f"{(row['ratio'] - 1.0) * 100:+.1f}%" if row["ratio"] is not None else "—"
        if status in _FAILING:
            status = f"❌ {status}"
        elif status.startswith("unresolved"):
            status = f"⚠️ {status}"
        elif status == "ok":
            status = "✅"
        lines.append(
            f"| `{row['name']}` | {row['value']} | {_fmt(row['base'])} | {_fmt(row['cur'])} "
            f"| {delta} | {status} |"
        )
    lines.append("")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", required=True)
    parser.add_argument("--current", required=True)
    parser.add_argument(
        "--threshold",
        type=float,
        default=2.0,
        help="fail when normalized score is worse than baseline by this factor",
    )
    parser.add_argument(
        "--markdown",
        metavar="FILE",
        help="append a GitHub-flavoured delta table to FILE (use $GITHUB_STEP_SUMMARY)",
    )
    parser.add_argument(
        "--no-gate",
        action="store_true",
        help="report (console and --markdown) but always exit 0",
    )
    args = parser.parse_args(argv)

    baseline = load(args.baseline)
    current = load(args.current)
    rows, failures = compare(baseline, current, args.threshold)
    render_console(rows)
    if args.markdown:
        with open(args.markdown, "a") as fh:
            fh.write(render_markdown(rows, args.threshold))
        print(f"\nmarkdown trend appended to {args.markdown}")
    if failures:
        print("\nperf gate failed:", file=sys.stderr)
        for line in failures:
            print(f"  {line}", file=sys.stderr)
        if args.no_gate:
            print("(--no-gate: reporting only, exiting 0)", file=sys.stderr)
            return 0
        return 1
    print("\nno perf regressions.")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
