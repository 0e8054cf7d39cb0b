"""Tests for the perf-regression harness: schema, normalisation, and gate.

The microbenches themselves are exercised by CI's perf-smoke job (they take
seconds to minutes); here we pin what must never drift silently — the
BENCH_perf.json schema, the committed baseline, and the regression gate's
pass/fail logic.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]
PERF_DIR = REPO_ROOT / "benchmarks" / "perf"

REQUIRED_TOP_KEYS = {
    "schema_version",
    "mode",
    "python",
    "calibration_ops_per_s",
    "meta",
    "benchmarks",
}
REQUIRED_ENTRY_KEYS = {"value", "unit", "higher_is_better", "normalized", "meta"}
#: Benchmarks every report must carry — CI's gate and the docs rely on them.
REQUIRED_BENCHMARKS = {
    "scheduler_asha_ops",
    "simulator_events",
    "simulator_churn_events",
    "end_to_end_asha",
    "parallel_speedup",
    "parallel_speedup_4",
    "parallel_speedup_8",
    "multiplex_studies",
    "multiplex_speedup",
}


def _load_module(name: str):
    spec = importlib.util.spec_from_file_location(name, PERF_DIR / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def perf_utils():
    return _load_module("perf_utils")


@pytest.fixture(scope="module")
def check_regression():
    return _load_module("check_regression")


def _validate_report(report: dict) -> None:
    assert REQUIRED_TOP_KEYS <= set(report)
    assert report["schema_version"] == 2
    assert report["mode"] in ("quick", "full")
    assert report["calibration_ops_per_s"] > 0
    # The size trajectory travels with the speed numbers.
    assert report["meta"]["src_lines"] > 0
    assert REQUIRED_BENCHMARKS <= set(report["benchmarks"])
    for name, entry in report["benchmarks"].items():
        assert REQUIRED_ENTRY_KEYS <= set(entry), name
        assert isinstance(entry["higher_is_better"], bool), name
        if entry["meta"].get("skipped"):
            # Schema v2: a machine that cannot take a measurement records
            # null with an explicit reason — never a fake number.
            assert entry["value"] is None, name
            assert entry["normalized"] is None, name
            assert entry["meta"]["skip_reason"], name
        else:
            assert entry["value"] > 0, name
            assert entry["normalized"] > 0, name
        if name.startswith("parallel_speedup"):
            assert entry["meta"]["cpu_count"] >= 1, name
            assert "n_jobs" in entry["meta"], name


class TestCommittedArtifacts:
    def test_repo_root_report_schema(self):
        report = json.loads((REPO_ROOT / "BENCH_perf.json").read_text())
        _validate_report(report)
        assert report["mode"] == "full"

    def test_committed_baseline_schema(self):
        baseline = json.loads((PERF_DIR / "baseline.json").read_text())
        _validate_report(baseline)
        assert baseline["mode"] == "quick"

    def test_parallel_speedup_carries_hard_floor(self):
        # The headline gate: parallel_speedup must be gated with a 1.3x
        # floor on every committed artifact, measured or skipped (the floor
        # binds whenever a machine with enough cores runs the suite).
        for path in (PERF_DIR / "baseline.json", REPO_ROOT / "BENCH_perf.json"):
            entry = json.loads(path.read_text())["benchmarks"]["parallel_speedup"]
            assert entry["meta"]["gated"] is True, path
            assert entry["meta"]["floor"] == 1.3, path
            assert entry["meta"]["n_jobs"] == 2, path

    def test_multiplex_speedup_carries_hard_floor(self):
        # The service-regime gate: the multiplexer must beat the naive
        # loop-per-study baseline by >= 2x on every committed artifact.
        for path in (PERF_DIR / "baseline.json", REPO_ROOT / "BENCH_perf.json"):
            report = json.loads(path.read_text())
            entry = report["benchmarks"]["multiplex_speedup"]
            assert entry["meta"]["gated"] is True, path
            assert entry["meta"]["floor"] == 2.0, path
            assert entry["meta"]["studies"] == 1000, path
            assert entry["value"] >= 2.0, path
            # Capacity companion: the full-mode artifact hosted >= 10k
            # concurrent studies in one process.
            capacity = report["benchmarks"]["multiplex_studies"]
            expected = 10_000 if report["mode"] == "full" else 1_000
            assert capacity["meta"]["studies"] == expected, path
            assert capacity["value"] > 0, path

    def test_observability_overhead_carries_hard_ceiling(self):
        # The observability gate: enabled-probe overhead must stay within
        # 3% of the unprobed hot paths on every committed artifact.
        for path in (PERF_DIR / "baseline.json", REPO_ROOT / "BENCH_perf.json"):
            entry = json.loads(path.read_text())["benchmarks"]["observability_overhead"]
            assert entry["meta"]["gated"] is True, path
            assert entry["meta"]["ceiling"] == 1.03, path
            assert entry["higher_is_better"] is False, path
            assert entry["value"] <= 1.03, path
            # Both instrumented workloads recorded their own ratio.
            assert "ratio_study_scheduler" in entry["meta"], path
            assert "ratio_multiplex" in entry["meta"], path

    def test_journal_resume_benchmarks_are_gated_with_their_spread(self):
        # Recovery rates: both resume modes are in every committed artifact,
        # gated against the baseline (no ``gated: false``), and carry the
        # spread of the paired rounds their median came from.
        for path in (PERF_DIR / "baseline.json", REPO_ROOT / "BENCH_perf.json"):
            report = json.loads(path.read_text())
            expected_tells = 20_000 if report["mode"] == "full" else 5_000
            for name in ("journal_resume_restore", "journal_resume_replay"):
                entry = report["benchmarks"][name]
                assert entry["meta"].get("gated", True) is True, (path, name)
                assert entry["unit"] == "records/s" and entry["higher_is_better"], (path, name)
                assert entry["meta"]["tells"] == expected_tells, (path, name)
                assert entry["meta"]["rounds"] >= 5 and entry["meta"]["iqr"] >= 0, (path, name)

    def test_import_cold_is_gated_with_its_spread_and_module_count(self):
        # Cold start: a gated duration (no ``gated: false``) with the spread
        # of its paired children and the machine-independent module count.
        for path in (PERF_DIR / "baseline.json", REPO_ROOT / "BENCH_perf.json"):
            entry = json.loads(path.read_text())["benchmarks"]["import_cold"]
            assert entry["meta"].get("gated", True) is True, path
            assert entry["unit"] == "s" and entry["higher_is_better"] is False, path
            assert entry["meta"]["rounds"] >= 5 and entry["meta"]["iqr"] >= 0, path
            assert entry["meta"]["import_modules"] > 0, path

    def test_skipped_speedups_record_their_reason(self):
        # Wherever a committed artifact skipped a speedup, the skip must be
        # loud: reason recorded, cpu_count below the requirement.
        for path in (PERF_DIR / "baseline.json", REPO_ROOT / "BENCH_perf.json"):
            report = json.loads(path.read_text())
            for name, entry in report["benchmarks"].items():
                if entry["meta"].get("skipped"):
                    assert "cores" in entry["meta"]["skip_reason"], name
                    assert entry["meta"]["cpu_count"] < 8, name


class TestNormalisation:
    def test_throughput_divides_by_calibration(self, perf_utils):
        entry = perf_utils.benchmark_entry(
            5000.0, "jobs/s", higher_is_better=True, calibration_ops_per_s=1000.0
        )
        assert entry["normalized"] == pytest.approx(5.0)

    def test_duration_inverts_first(self, perf_utils):
        fast = perf_utils.benchmark_entry(
            2.0, "s", higher_is_better=False, calibration_ops_per_s=1000.0
        )
        slow = perf_utils.benchmark_entry(
            4.0, "s", higher_is_better=False, calibration_ops_per_s=1000.0
        )
        # Normalised scores are uniformly higher-is-better.
        assert fast["normalized"] > slow["normalized"]

    def test_rejects_nonpositive_values(self, perf_utils):
        with pytest.raises(ValueError):
            perf_utils.benchmark_entry(
                0.0, "jobs/s", higher_is_better=True, calibration_ops_per_s=1000.0
            )


def _report_with(
    normalized: dict[str, float],
    gated: dict[str, bool] | None = None,
    floors: dict[str, float] | None = None,
    skipped: set[str] | None = None,
    ceilings: dict[str, float] | None = None,
) -> dict:
    gated = gated or {}
    floors = floors or {}
    skipped = skipped or set()
    ceilings = ceilings or {}
    benchmarks = {}
    for name, score in normalized.items():
        meta: dict = {"gated": gated.get(name, True)}
        if name in floors:
            meta["floor"] = floors[name]
        if name in ceilings:
            meta["ceiling"] = ceilings[name]
        if name in skipped:
            meta.update(skipped=True, skip_reason="requires >= 4 cores, machine has 1")
            benchmarks[name] = {
                "value": None,
                "unit": "x",
                "higher_is_better": True,
                "normalized": None,
                "meta": meta,
            }
            continue
        benchmarks[name] = {
            "value": score,
            "unit": "x",
            "higher_is_better": True,
            "normalized": score,
            "meta": meta,
        }
    return {
        "schema_version": 2,
        "mode": "quick",
        "python": "3.11",
        "calibration_ops_per_s": 1.0,
        "benchmarks": benchmarks,
    }


class TestRegressionGate:
    def _run(self, check_regression, tmp_path, baseline, current, threshold=2.0):
        base_path = tmp_path / "baseline.json"
        cur_path = tmp_path / "current.json"
        base_path.write_text(json.dumps(baseline))
        cur_path.write_text(json.dumps(current))
        return check_regression.main(
            [
                "--baseline",
                str(base_path),
                "--current",
                str(cur_path),
                "--threshold",
                str(threshold),
            ]
        )

    def test_identical_reports_pass(self, check_regression, tmp_path):
        report = _report_with({"a": 10.0, "b": 3.0})
        assert self._run(check_regression, tmp_path, report, report) == 0

    def test_mild_slowdown_within_threshold_passes(self, check_regression, tmp_path):
        baseline = _report_with({"a": 10.0})
        current = _report_with({"a": 6.0})  # 1.67x slower < 2x threshold
        assert self._run(check_regression, tmp_path, baseline, current) == 0

    def test_regression_beyond_threshold_fails(self, check_regression, tmp_path):
        baseline = _report_with({"a": 10.0})
        current = _report_with({"a": 4.0})  # 2.5x slower
        assert self._run(check_regression, tmp_path, baseline, current) == 1

    def test_ungated_benchmark_never_fails(self, check_regression, tmp_path):
        baseline = _report_with({"a": 10.0}, gated={"a": False})
        current = _report_with({"a": 1.0}, gated={"a": False})
        assert self._run(check_regression, tmp_path, baseline, current) == 0

    def test_missing_benchmark_is_skipped(self, check_regression, tmp_path):
        baseline = _report_with({"a": 10.0, "b": 5.0})
        current = _report_with({"a": 10.0})
        assert self._run(check_regression, tmp_path, baseline, current) == 0


class TestFloorGate:
    _run = TestRegressionGate._run

    def test_value_below_floor_fails_with_named_benchmark(
        self, check_regression, tmp_path, capsys
    ):
        baseline = _report_with({"parallel_speedup": 1.5}, floors={"parallel_speedup": 1.3})
        current = _report_with({"parallel_speedup": 1.1}, floors={"parallel_speedup": 1.3})
        assert self._run(check_regression, tmp_path, baseline, current) == 1
        err = capsys.readouterr().err
        # Satellite: the failure message names the offending benchmark and
        # its floor.
        assert "parallel_speedup" in err
        assert "1.3" in err
        assert "floor" in err

    def test_value_at_floor_passes(self, check_regression, tmp_path):
        report = _report_with({"parallel_speedup": 1.3}, floors={"parallel_speedup": 1.3})
        assert self._run(check_regression, tmp_path, report, report) == 0

    def test_floor_binds_even_when_baseline_skipped(self, check_regression, tmp_path):
        # The committed baseline may come from a small machine (skipped
        # speedups); a 4-core CI runner measuring below the floor must
        # still fail.
        baseline = _report_with(
            {"parallel_speedup": 0.0},
            floors={"parallel_speedup": 1.3},
            skipped={"parallel_speedup"},
        )
        current = _report_with({"parallel_speedup": 1.0}, floors={"parallel_speedup": 1.3})
        assert self._run(check_regression, tmp_path, baseline, current) == 1

    def test_skipped_current_never_fails(self, check_regression, tmp_path):
        baseline = _report_with({"parallel_speedup": 1.5}, floors={"parallel_speedup": 1.3})
        current = _report_with(
            {"parallel_speedup": 0.0},
            floors={"parallel_speedup": 1.3},
            skipped={"parallel_speedup"},
        )
        assert self._run(check_regression, tmp_path, baseline, current) == 0

    def test_ungated_floor_is_informational(self, check_regression, tmp_path):
        report_kwargs = dict(
            gated={"parallel_speedup_8": False}, floors={"parallel_speedup_8": 2.5}
        )
        baseline = _report_with({"parallel_speedup_8": 3.0}, **report_kwargs)
        current = _report_with({"parallel_speedup_8": 2.0}, **report_kwargs)
        assert self._run(check_regression, tmp_path, baseline, current) == 0

    def test_meta_less_skipped_entry_does_not_crash(self, check_regression, tmp_path):
        # Bugfix: a skipped entry is anything with ``value: null`` — the
        # ``meta`` block is optional (hand-pruned baselines drop it), but the
        # comparison indexed ``entry["meta"]`` directly and raised KeyError
        # before it could render "skipped: no reason recorded".
        bare_skip = {
            "value": None,
            "unit": "x",
            "higher_is_better": True,
            "normalized": None,
        }
        baseline = _report_with({"a": 10.0})
        current = _report_with({"a": 10.0})
        current["benchmarks"]["a"] = dict(bare_skip)
        assert self._run(check_regression, tmp_path, baseline, current) == 0
        baseline["benchmarks"]["a"] = dict(bare_skip)
        current = _report_with({"a": 10.0})
        assert self._run(check_regression, tmp_path, baseline, current) == 0


class TestCeilingGate:
    """``meta.ceiling`` — the floor's dual, for overhead-ratio benchmarks."""

    _run = TestRegressionGate._run

    def test_value_above_ceiling_fails_with_named_benchmark(
        self, check_regression, tmp_path, capsys
    ):
        baseline = _report_with(
            {"observability_overhead": 1.0}, ceilings={"observability_overhead": 1.03}
        )
        current = _report_with(
            {"observability_overhead": 1.08}, ceilings={"observability_overhead": 1.03}
        )
        assert self._run(check_regression, tmp_path, baseline, current) == 1
        err = capsys.readouterr().err
        assert "observability_overhead" in err
        assert "1.03" in err
        assert "ceiling" in err

    def test_value_at_ceiling_passes(self, check_regression, tmp_path):
        report = _report_with(
            {"observability_overhead": 1.03}, ceilings={"observability_overhead": 1.03}
        )
        assert self._run(check_regression, tmp_path, report, report) == 0

    def test_ungated_ceiling_is_informational(self, check_regression, tmp_path):
        baseline = _report_with(
            {"obs": 1.0}, gated={"obs": False}, ceilings={"obs": 1.03}
        )
        current = _report_with(
            {"obs": 2.0}, gated={"obs": False}, ceilings={"obs": 1.03}
        )
        assert self._run(check_regression, tmp_path, baseline, current) == 0

    def test_candidate_only_ceiling_still_binds(self, check_regression, tmp_path, capsys):
        # A brand-new overhead benchmark missing from the baseline must
        # still enforce its ceiling, not just complain about staleness.
        baseline = _report_with({"other": 1.0})
        current = _report_with(
            {"other": 1.0, "observability_overhead": 1.5},
            ceilings={"observability_overhead": 1.03},
        )
        assert self._run(check_regression, tmp_path, baseline, current) == 1
        assert "ceiling" in capsys.readouterr().err

    def test_markdown_marks_above_ceiling(self, check_regression, tmp_path):
        baseline = _report_with({"obs": 1.0}, ceilings={"obs": 1.03})
        current = _report_with({"obs": 1.5}, ceilings={"obs": 1.03})
        base_path = tmp_path / "baseline.json"
        cur_path = tmp_path / "current.json"
        md_path = tmp_path / "trend.md"
        base_path.write_text(json.dumps(baseline))
        cur_path.write_text(json.dumps(current))
        check_regression.main(
            [
                "--baseline",
                str(base_path),
                "--current",
                str(cur_path),
                "--markdown",
                str(md_path),
                "--no-gate",
            ]
        )
        assert "❌ ABOVE CEILING" in md_path.read_text()


class TestCandidateOnlyBenchmarks:
    """A benchmark name present only in the candidate report (stale baseline).

    Satellite: the gate must report a clear, named error — not a silent
    "only in current" row (which would skip the new benchmark's ratio *and*
    floor checks), and not a KeyError traceback.
    """

    _run = TestRegressionGate._run

    def test_gated_candidate_only_fails_with_regenerate_hint(
        self, check_regression, tmp_path, capsys
    ):
        baseline = _report_with({"a": 10.0})
        current = _report_with({"a": 10.0, "multiplex_speedup": 3.0})
        assert self._run(check_regression, tmp_path, baseline, current) == 1
        err = capsys.readouterr().err
        assert "multiplex_speedup" in err
        assert "missing from the baseline" in err
        assert "run_perf.py" in err  # says how to fix it

    def test_candidate_only_floor_still_binds(self, check_regression, tmp_path, capsys):
        # A brand-new gated benchmark below its hard floor must fail on the
        # floor (the stronger signal), not just on baseline staleness.
        baseline = _report_with({"a": 10.0})
        current = _report_with(
            {"a": 10.0, "multiplex_speedup": 1.2}, floors={"multiplex_speedup": 2.0}
        )
        assert self._run(check_regression, tmp_path, baseline, current) == 1
        err = capsys.readouterr().err
        assert "below" in err and "floor" in err and "multiplex_speedup" in err

    def test_ungated_candidate_only_passes(self, check_regression, tmp_path):
        baseline = _report_with({"a": 10.0})
        current = _report_with(
            {"a": 10.0, "experimental": 1.0}, gated={"experimental": False}
        )
        assert self._run(check_regression, tmp_path, baseline, current) == 0

    def test_skipped_candidate_only_passes(self, check_regression, tmp_path):
        # A new benchmark that this machine cannot run (value: null) is a
        # loud skip, not a staleness failure.
        baseline = _report_with({"a": 10.0})
        current = _report_with(
            {"a": 10.0, "multiplex_speedup": 0.0}, skipped={"multiplex_speedup"}
        )
        assert self._run(check_regression, tmp_path, baseline, current) == 0

    def test_baseline_only_is_still_benign(self, check_regression, tmp_path):
        # The inverse direction (retired benchmark) stays a non-failure.
        baseline = _report_with({"a": 10.0, "retired": 5.0})
        current = _report_with({"a": 10.0})
        assert self._run(check_regression, tmp_path, baseline, current) == 0

    def test_malformed_entry_reports_instead_of_crashing(
        self, check_regression, tmp_path, capsys
    ):
        baseline = _report_with({"a": 10.0})
        current = _report_with({"a": 10.0})
        current["benchmarks"]["broken"] = {"value": 1.0}  # no normalized/unit/meta
        assert self._run(check_regression, tmp_path, baseline, current) == 1
        err = capsys.readouterr().err
        assert "broken" in err and "missing required key" in err


class TestReporting:
    def _run(self, check_regression, tmp_path, baseline, current, extra_args=()):
        base_path = tmp_path / "baseline.json"
        cur_path = tmp_path / "current.json"
        base_path.write_text(json.dumps(baseline))
        cur_path.write_text(json.dumps(current))
        return check_regression.main(
            ["--baseline", str(base_path), "--current", str(cur_path), *extra_args]
        )

    def test_no_gate_reports_but_exits_zero(self, check_regression, tmp_path):
        baseline = _report_with({"a": 10.0})
        current = _report_with({"a": 1.0})  # 10x regression
        assert self._run(check_regression, tmp_path, baseline, current) == 1
        assert (
            self._run(check_regression, tmp_path, baseline, current, ["--no-gate"]) == 0
        )

    def test_markdown_trend_table(self, check_regression, tmp_path):
        baseline = _report_with({"a": 10.0, "parallel_speedup": 1.5})
        current = _report_with({"a": 12.0, "parallel_speedup": 1.6})
        md_path = tmp_path / "summary.md"
        assert (
            self._run(
                check_regression,
                tmp_path,
                baseline,
                current,
                ["--markdown", str(md_path)],
            )
            == 0
        )
        table = md_path.read_text()
        assert "| benchmark |" in table
        assert "`parallel_speedup`" in table
        assert "+20.0%" in table  # a's delta
        assert "✅" in table

    def test_markdown_marks_floor_failures(self, check_regression, tmp_path):
        baseline = _report_with({"parallel_speedup": 1.5}, floors={"parallel_speedup": 1.3})
        current = _report_with({"parallel_speedup": 1.0}, floors={"parallel_speedup": 1.3})
        md_path = tmp_path / "summary.md"
        assert (
            self._run(
                check_regression,
                tmp_path,
                baseline,
                current,
                ["--markdown", str(md_path), "--no-gate"],
            )
            == 0
        )
        assert "BELOW FLOOR" in md_path.read_text()

    def test_markdown_renders_skipped_rows_with_reason(self, check_regression, tmp_path):
        # Satellite: a benchmark skipped on the current machine (small CI
        # runner) must show up as "skipped: <reason>", not as a row of null
        # deltas that reads like missing data.
        baseline = _report_with({"a": 10.0, "parallel_speedup": 1.5})
        current = _report_with(
            {"a": 10.0, "parallel_speedup": 0.0}, skipped={"parallel_speedup"}
        )
        md_path = tmp_path / "summary.md"
        assert (
            self._run(
                check_regression,
                tmp_path,
                baseline,
                current,
                ["--markdown", str(md_path)],
            )
            == 0
        )
        table = md_path.read_text()
        row = next(line for line in table.splitlines() if "`parallel_speedup`" in line)
        assert "skipped: requires >= 4 cores, machine has 1" in row
        # The delta column says why it is empty instead of a bare null.
        assert "| skipped on current |" in row

    def test_markdown_renders_baseline_skips_with_reason(self, check_regression, tmp_path):
        baseline = _report_with(
            {"a": 10.0, "parallel_speedup": 0.0}, skipped={"parallel_speedup"}
        )
        current = _report_with({"a": 10.0, "parallel_speedup": 1.5})
        md_path = tmp_path / "summary.md"
        assert (
            self._run(
                check_regression,
                tmp_path,
                baseline,
                current,
                ["--markdown", str(md_path)],
            )
            == 0
        )
        row = next(
            line
            for line in md_path.read_text().splitlines()
            if "`parallel_speedup`" in line
        )
        assert "skipped: requires >= 4 cores, machine has 1" in row
        assert "skipped on baseline" in row
