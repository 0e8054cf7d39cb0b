"""The system benchmark: six named workloads, end-to-end and per-layer metrics.

One run of one workload (what the driver calls)::

    python3 benchmarks/system/run.py --workload NAME --seed N --seconds S --trace 0|1

prints, as the last line of standard output, one JSON object
``{"correct", "attempted", "failed", "metrics"}`` — the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1`` — and exits
non-zero if any operation failed or any output check did not hold.

The whole suite (what a person runs)::

    python3 benchmarks/system/run.py [--seed N] [--quick] [--seconds S] [--rounds K]

runs every workload twice (untraced, then traced), each in its own fresh
single-threaded subprocess, one at a time; prints every metric by name with
its unit; writes the full report to ``<workdir>/report.json``; and keeps
``BENCHMARK.json`` at the repository root in step with :mod:`schema`.

``--aa [K]`` runs the end-to-end set twice (two sets of K runs per workload,
a different seed each run) and holds the benchmark to its own bounds: the
quartile spread of every metric but ``setup_s``, and the drift of every
median between the two sets.

Journals and WALs go to a private directory under ``--workdir`` (default
``.bench_work/`` at the repository root, so the benchmark reads and writes
only inside its checkout) and are removed at exit; the traced round's spans
stay behind in ``<workdir>/trace-<workload>.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))

sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import schema  # noqa: E402


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(schema.WORKLOADS), default=None,
                        help="run this one workload in-process (default: the whole suite)")
    parser.add_argument("--seed", type=int, default=0,
                        help="generates the inputs: scheduler, cluster and objective seeds")
    parser.add_argument("--seconds", type=float, default=None,
                        help=f"seconds one run measures (default {schema.RUN_SECONDS}; quick: 1)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: add the traced round and report the per-layer metrics")
    parser.add_argument("--quick", action="store_true", help="1/8 sizes, same schema")
    parser.add_argument("--rounds", type=int, default=None,
                        help="run exactly this many untraced rounds instead of filling --seconds")
    parser.add_argument("--workdir", default=os.path.join(ROOT, ".bench_work"),
                        help="where journals, traces and the report go")
    parser.add_argument("--aa", type=int, nargs="?", const=10, default=None, metavar="K",
                        help="A/A check: two sets of K end-to-end runs per workload")
    return parser


# ---------------------------------------------------------------- one run


def run_one(args: argparse.Namespace) -> int:
    started = perf_counter()
    import harness  # noqa: PLC0415 — the import is part of what setup_s measures
    import workloads  # noqa: PLC0415

    import_s = perf_counter() - started
    seconds = args.seconds
    if seconds is None:
        seconds = 1 if args.quick else schema.RUN_SECONDS
    report = harness.run_workload(
        workloads.WORKLOADS[args.workload],
        seed=args.seed,
        seconds=seconds,
        trace=bool(args.trace),
        scale=0.125 if args.quick else 1.0,
        workdir=os.path.join(args.workdir, f"{args.workload}-{os.getpid()}"),
        import_s=import_s,
        rounds=args.rounds,
        trace_path=os.path.join(args.workdir, f"trace-{args.workload}.jsonl"),
    )
    print(json.dumps({"meta": report.meta}), file=sys.stderr)
    print(json.dumps(report.result))
    return 0 if report.correct else 1


# -------------------------------------------------------------- the suite


def _child(args: argparse.Namespace, workload: str, seed: int, trace: int):
    """Run one workload in a fresh subprocess; returns (exit code, result, meta)."""
    command = [sys.executable, os.path.abspath(__file__), "--workload", workload,
               "--seed", str(seed), "--trace", str(trace), "--workdir", args.workdir]
    if args.seconds is not None:
        command += ["--seconds", str(args.seconds)]
    if args.rounds is not None:
        command += ["--rounds", str(args.rounds)]
    if args.quick:
        command.append("--quick")
    done = subprocess.run(command, capture_output=True, text=True, check=False)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    meta = {}
    for line in done.stderr.splitlines():
        if line.startswith('{"meta"'):
            meta = json.loads(line)["meta"]
        else:
            print(line, file=sys.stderr)
    return done.returncode, result, meta


def _fs_type(path: str) -> str:
    """Filesystem type under ``path`` (tmpfs would make fsync free)."""
    path = os.path.realpath(path)
    best, kind = "", "unknown"
    try:
        with open("/proc/mounts", encoding="utf-8") as fh:
            for line in fh:
                _, mount, fstype = line.split()[:3]
                inside = path == mount or path.startswith(mount.rstrip("/") + "/")
                if inside and len(mount) > len(best):
                    best, kind = mount, fstype
    except OSError:
        pass
    return kind


def _git_commit() -> str:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, check=False, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def _src_lines() -> int:
    total = 0
    for directory, _, files in os.walk(os.path.join(ROOT, "src")):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(directory, name), "rb") as fh:
                    total += sum(1 for _ in fh)
    return total


def _meta(args: argparse.Namespace) -> dict:
    import numpy  # noqa: PLC0415

    sys.path.insert(0, os.path.join(ROOT, "benchmarks", "perf"))
    try:
        from perf_utils import calibrate  # noqa: PLC0415 — read-only reuse of the perf harness

        calibration = calibrate()
    except ImportError:
        calibration = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": _git_commit(),
        "workdir_fs": _fs_type(args.workdir),
        "calibration_ops_per_s": calibration,
        "src_lines": _src_lines(),
        "seed": args.seed,
        "quick": args.quick,
        "run_seconds": args.seconds or (1 if args.quick else schema.RUN_SECONDS),
    }


def write_manifest() -> None:
    """Keep ``BENCHMARK.json`` equal to what :mod:`schema` declares."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    text = json.dumps(schema.manifest(), indent=2) + "\n"
    try:
        with open(path, encoding="utf-8") as fh:
            if fh.read() == text:
                return
    except OSError:
        pass
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def run_suite(args: argparse.Namespace) -> int:
    write_manifest()
    report = {"meta": _meta(args), "workloads": {}}
    status = 0
    for workload, why in schema.WORKLOADS.items():
        print(f"\n== {workload}\n   {why}", flush=True)
        entry = report["workloads"][workload] = {}
        for trace in (0, 1):
            code, result, meta = _child(args, workload, args.seed, trace)
            status = status or code
            if result is None:
                print(f"   --trace {trace}: no result (exit code {code})")
                continue
            entry["traced" if trace else "end_to_end"] = {**result, "meta": meta}
            share = result["failed"] / result["attempted"]
            print(f"   --trace {trace}: correct={result['correct']} "
                  f"attempted={result['attempted']} ops_failed_share={share:g}")
            for name, metric in result["metrics"].items():
                print(f"   {name:<34} {metric['value']:>16.6g} {metric['unit']}", flush=True)
    path = os.path.join(args.workdir, "report.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)
    print(f"\nreport: {path}   meta: {json.dumps(report['meta'])}")
    return status


# ------------------------------------------------------------------- A/A


def _spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def run_aa(args: argparse.Namespace) -> int:
    """Two sets of K end-to-end runs per workload, held to the bounds."""
    runs = args.aa
    status = 0
    print(f"{'workload':<24} {'metric':<12} {'spread A':>9} {'spread B':>9} "
          f"{'drift':>8} {'bound':>6}")
    for workload in schema.WORKLOADS:
        sets: list[dict[str, list[float]]] = []
        for _ in range(2):
            values: dict[str, list[float]] = {m.name: [] for m in schema.END_TO_END}
            for seed in range(1, runs + 1):
                code, result, _ = _child(args, workload, args.seed + seed, 0)
                if code or result is None or not result["correct"]:
                    print(f"{workload}: seed {args.seed + seed} failed (exit code {code})")
                    status = 1
                    continue
                for name, metric in result["metrics"].items():
                    values[name].append(metric["value"])
            sets.append(values)
        for metric in schema.END_TO_END:
            first, second = (s[metric.name] for s in sets)
            if len(first) < 2 or len(second) < 2:
                continue
            a, b = statistics.median(first), statistics.median(second)
            drift = (b - a) / a if metric.better == "lower" else (a - b) / a
            spreads = (_spread(first), _spread(second))
            bad = drift > metric.bound or (metric.name != "setup_s" and max(spreads) > metric.bound)
            status = status or int(bad)
            print(f"{workload:<24} {metric.name:<12} {spreads[0]:>9.4f} {spreads[1]:>9.4f} "
                  f"{drift:>+8.4f} {metric.bound:>6.2f}{'  EXCEEDED' if bad else ''}", flush=True)
    return status


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    # Before numpy loads (here or in a child): one single-threaded process
    # generates the load.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    os.makedirs(args.workdir, exist_ok=True)
    if args.workload is not None:
        return run_one(args)
    if args.aa is not None:
        return run_aa(args)
    return run_suite(args)


if __name__ == "__main__":
    sys.exit(main())
