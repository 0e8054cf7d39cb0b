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

REQUIRED_TOP_KEYS = {"schema_version", "mode", "python", "calibration_ops_per_s", "benchmarks"}
REQUIRED_ENTRY_KEYS = {"value", "unit", "higher_is_better", "normalized", "meta"}
#: The whole suite: what the system benchmark cannot express, nothing else.
BENCHMARKS = {
    "simulator_churn_events",
    "import_cold",
    "observability_overhead",
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


ARTIFACTS = {"full": REPO_ROOT / "BENCH_perf.json", "quick": PERF_DIR / "baseline.json"}


def _validate_report(mode: str) -> dict:
    """The artifact says what the harness says: exactly the four entries,
    each a measured median with its spread, each hard bound unbroken by the
    band — the committed pair passes its own gate from one run of each."""
    report = json.loads(ARTIFACTS[mode].read_text())
    assert REQUIRED_TOP_KEYS <= set(report)
    assert report["schema_version"] == 3
    assert report["mode"] == mode
    assert report["calibration_ops_per_s"] > 0
    benchmarks = report["benchmarks"]
    assert set(benchmarks) == BENCHMARKS
    for name, entry in benchmarks.items():
        assert REQUIRED_ENTRY_KEYS <= set(entry), name
        assert isinstance(entry["higher_is_better"], bool), name
        # Present means measured: no null values, no skipped kind.
        assert entry["value"] is not None and entry["value"] > 0, name
        assert entry["normalized"] > 0, name
        assert entry["meta"]["rounds"] >= 5 and entry["meta"]["iqr"] >= 0, name
        assert entry["meta"].get("gated", True) is True, name
    speedup, overhead = benchmarks["multiplex_speedup"], benchmarks["observability_overhead"]
    assert speedup["meta"]["floor"] == 2.0
    assert speedup["value"] + speedup["meta"]["iqr"] / 2 >= 2.0
    assert overhead["meta"]["ceiling"] == 1.03
    assert overhead["value"] - overhead["meta"]["iqr"] / 2 <= 1.03
    return benchmarks


class TestCommittedArtifacts:
    def test_repo_root_report_schema(self):
        _validate_report("full")

    def test_committed_baseline_schema(self):
        _validate_report("quick")

    def test_multiplex_speedup_carries_hard_floor(self):
        # The service-regime gate is stated at 1k studies, in both modes.
        for mode in ARTIFACTS:
            entry = _validate_report(mode)["multiplex_speedup"]
            assert entry["higher_is_better"] is True, mode
            assert entry["meta"]["studies"] == 1000, mode

    def test_observability_overhead_carries_hard_ceiling(self):
        for mode in ARTIFACTS:
            entry = _validate_report(mode)["observability_overhead"]
            assert entry["higher_is_better"] is False, mode
            # Both instrumented workloads recorded their own ratio.
            assert {"ratio_study_scheduler", "ratio_multiplex"} <= set(entry["meta"]), mode

    def test_import_cold_is_gated_with_its_spread_and_module_count(self):
        # Cold start carries the machine-independent module count.
        for mode in ARTIFACTS:
            entry = _validate_report(mode)["import_cold"]
            assert entry["unit"] == "s" and entry["higher_is_better"] is False, mode
            assert entry["meta"]["import_modules"] > 0, mode


class TestNormalisation:
    def test_throughput_divides_by_calibration(self, perf_utils):
        entry = perf_utils.benchmark_entry(
            [4000.0, 4800.0, 5000.0, 5200.0, 9000.0],
            "jobs/s",
            higher_is_better=True,
            calibration_ops_per_s=1000.0,
        )
        # The median round, with the spread it came from beside it.
        assert entry["value"] == 5000.0
        assert entry["normalized"] == pytest.approx(5.0)
        assert entry["meta"]["rounds"] == 5 and entry["meta"]["iqr"] > 0

    def test_duration_inverts_first(self, perf_utils):
        fast = perf_utils.benchmark_entry(
            [2.0] * 5, "s", higher_is_better=False, calibration_ops_per_s=1000.0
        )
        slow = perf_utils.benchmark_entry(
            [4.0] * 5, "s", higher_is_better=False, calibration_ops_per_s=1000.0
        )
        # Normalised scores are uniformly higher-is-better.
        assert fast["normalized"] > slow["normalized"]

    def test_rejects_nonpositive_values(self, perf_utils):
        with pytest.raises(ValueError):
            perf_utils.benchmark_entry(
                [0.0] * 5, "jobs/s", higher_is_better=True, calibration_ops_per_s=1000.0
            )

    def test_rejects_fewer_than_five_rounds(self, perf_utils):
        with pytest.raises(ValueError, match="rounds"):
            perf_utils.benchmark_entry(
                [1.0] * 4, "jobs/s", higher_is_better=True, calibration_ops_per_s=1000.0
            )


def _report_with(
    normalized: dict[str, float],
    gated: dict[str, bool] | None = None,
    floors: dict[str, float] | None = None,
    ceilings: dict[str, float] | None = None,
    iqrs: dict[str, float] | None = None,
) -> dict:
    benchmarks = {}
    for name, score in normalized.items():
        meta: dict = {"gated": (gated or {}).get(name, True)}
        for key, table in (("floor", floors), ("ceiling", ceilings), ("iqr", iqrs)):
            if table and name in table:
                meta[key] = table[name]
        benchmarks[name] = {
            "value": score,
            "unit": "x",
            "higher_is_better": True,
            "normalized": score,
            "meta": meta,
        }
    return {
        "schema_version": 3,
        "mode": "quick",
        "python": "3.11",
        "calibration_ops_per_s": 1.0,
        "benchmarks": benchmarks,
    }


@pytest.fixture
def gate(check_regression, tmp_path):
    """The gate's CLI over two in-memory reports; returns its exit code."""

    def run(baseline: dict, current: dict, *extra_args: str) -> int:
        base_path = tmp_path / "baseline.json"
        cur_path = tmp_path / "current.json"
        base_path.write_text(json.dumps(baseline))
        cur_path.write_text(json.dumps(current))
        return check_regression.main(
            ["--baseline", str(base_path), "--current", str(cur_path), *extra_args]
        )

    return run


class TestRegressionGate:
    def test_identical_reports_pass(self, gate):
        report = _report_with({"a": 10.0, "b": 3.0})
        assert gate(report, report) == 0

    def test_mild_slowdown_within_threshold_passes(self, gate):
        baseline = _report_with({"a": 10.0})
        current = _report_with({"a": 6.0})  # 1.67x slower < 2x threshold
        assert gate(baseline, current) == 0

    def test_regression_beyond_threshold_fails(self, gate):
        baseline = _report_with({"a": 10.0})
        current = _report_with({"a": 4.0})  # 2.5x slower
        assert gate(baseline, current) == 1

    def test_ungated_benchmark_never_fails(self, gate):
        baseline = _report_with({"a": 10.0}, gated={"a": False})
        current = _report_with({"a": 1.0}, gated={"a": False})
        assert gate(baseline, current) == 0

    def test_missing_benchmark_is_skipped(self, gate):
        baseline = _report_with({"a": 10.0, "b": 5.0})
        current = _report_with({"a": 10.0})
        assert gate(baseline, current) == 0


class TestFloorGate:
    def test_value_below_floor_fails_with_named_benchmark(self, gate, capsys):
        baseline = _report_with({"multiplex_speedup": 2.5}, floors={"multiplex_speedup": 2.0})
        current = _report_with({"multiplex_speedup": 1.6}, floors={"multiplex_speedup": 2.0})
        assert gate(baseline, current) == 1
        err = capsys.readouterr().err
        # The failure message names the offending benchmark and its floor.
        assert "multiplex_speedup" in err
        assert "2.0" in err
        assert "floor" in err

    def test_value_at_floor_passes(self, gate):
        report = _report_with({"multiplex_speedup": 2.0}, floors={"multiplex_speedup": 2.0})
        assert gate(report, report) == 0

    def test_ungated_floor_is_informational(self, gate):
        report_kwargs = dict(gated={"speedup": False}, floors={"speedup": 2.5})
        baseline = _report_with({"speedup": 3.0}, **report_kwargs)
        current = _report_with({"speedup": 2.0}, **report_kwargs)
        assert gate(baseline, current) == 0


class TestCeilingGate:
    """``meta.ceiling`` — the floor's dual, for overhead-ratio benchmarks."""

    def test_value_above_ceiling_fails_with_named_benchmark(self, gate, capsys):
        baseline = _report_with(
            {"observability_overhead": 1.0}, ceilings={"observability_overhead": 1.03}
        )
        current = _report_with(
            {"observability_overhead": 1.08}, ceilings={"observability_overhead": 1.03}
        )
        assert gate(baseline, current) == 1
        err = capsys.readouterr().err
        assert "observability_overhead" in err
        assert "1.03" in err
        assert "ceiling" in err

    def test_value_at_ceiling_passes(self, gate):
        report = _report_with(
            {"observability_overhead": 1.03}, ceilings={"observability_overhead": 1.03}
        )
        assert gate(report, report) == 0

    def test_ungated_ceiling_is_informational(self, gate):
        baseline = _report_with({"obs": 1.0}, gated={"obs": False}, ceilings={"obs": 1.03})
        current = _report_with({"obs": 2.0}, gated={"obs": False}, ceilings={"obs": 1.03})
        assert gate(baseline, current) == 0

    def test_candidate_only_ceiling_still_binds(self, gate, capsys):
        # A brand-new overhead benchmark missing from the baseline must
        # still enforce its ceiling, not just complain about staleness.
        baseline = _report_with({"other": 1.0})
        current = _report_with(
            {"other": 1.0, "observability_overhead": 1.5},
            ceilings={"observability_overhead": 1.03},
        )
        assert gate(baseline, current) == 1
        assert "ceiling" in capsys.readouterr().err

    def test_markdown_marks_above_ceiling(self, gate, tmp_path):
        baseline = _report_with({"obs": 1.0}, ceilings={"obs": 1.03})
        current = _report_with({"obs": 1.5}, ceilings={"obs": 1.03})
        md_path = tmp_path / "trend.md"
        gate(baseline, current, "--markdown", str(md_path), "--no-gate")
        assert "❌ ABOVE CEILING" in md_path.read_text()


class TestBandRule:
    """A bound is held against ``value ± iqr/2``, not against the median alone."""

    @pytest.fixture
    def banded(self, gate, tmp_path, capsys):
        """(exit code, stderr, markdown) for an overhead of ``value`` ± ``iqr``/2
        under a 1.03 ceiling, and a speedup as far on the wrong side of a 2.0
        floor."""

        def run(value: float, iqr: float) -> tuple[int, str, str]:
            names = {"observability_overhead": value, "multiplex_speedup": 3.03 - value}
            report = _report_with(
                names,
                ceilings={"observability_overhead": 1.03},
                floors={"multiplex_speedup": 2.0},
                iqrs=dict.fromkeys(names, iqr),
            )
            md_path = tmp_path / "trend.md"
            code = gate(report, report, "--markdown", str(md_path))
            return code, capsys.readouterr().err, md_path.read_text()

        return run

    def test_band_wholly_beyond_the_bound_fails_and_names_the_entry(self, banded):
        code, err, table = banded(value=1.08, iqr=0.04)
        assert code == 1
        assert "observability_overhead" in err and "above its hard ceiling" in err
        assert "multiplex_speedup" in err and "below its hard floor" in err
        assert "❌ ABOVE CEILING" in table and "❌ BELOW FLOOR" in table

    def test_bound_inside_the_band_is_unresolved_and_does_not_fail(self, banded):
        code, err, table = banded(value=1.04, iqr=0.04)
        assert code == 0 and err == ""
        for name in ("observability_overhead", "multiplex_speedup"):
            row = next(line for line in table.splitlines() if f"`{name}`" in line)
            assert "⚠️ unresolved" in row, row
        # The band itself is in the table, not just the verdict.
        assert "1.0400 ± 0.0200 x" in table

    def test_band_inside_the_bound_is_ok(self, banded):
        code, err, table = banded(value=1.02, iqr=0.04)
        assert code == 0 and err == ""
        assert "unresolved" not in table and table.count("✅") == 2


class TestCandidateOnlyBenchmarks:
    """A benchmark name present only in the candidate report (stale baseline).

    The gate must report a clear, named error — not a silent "only in
    current" row (which would skip the new benchmark's ratio check), and not
    a traceback.
    """

    def test_gated_candidate_only_fails_with_regenerate_hint(self, gate, capsys):
        baseline = _report_with({"a": 10.0})
        current = _report_with({"a": 10.0, "multiplex_speedup": 3.0})
        assert gate(baseline, current) == 1
        err = capsys.readouterr().err
        assert "multiplex_speedup" in err
        assert "missing from the baseline" in err
        assert "run_perf.py" in err  # says how to fix it

    def test_candidate_only_floor_still_binds(self, gate, capsys):
        # A brand-new gated benchmark below its hard floor must fail on the
        # floor (the stronger signal), not just on baseline staleness.
        baseline = _report_with({"a": 10.0})
        current = _report_with(
            {"a": 10.0, "multiplex_speedup": 1.2}, floors={"multiplex_speedup": 2.0}
        )
        assert gate(baseline, current) == 1
        err = capsys.readouterr().err
        assert "below" in err and "floor" in err and "multiplex_speedup" in err

    def test_ungated_candidate_only_passes(self, gate):
        baseline = _report_with({"a": 10.0})
        current = _report_with({"a": 10.0, "experimental": 1.0}, gated={"experimental": False})
        assert gate(baseline, current) == 0

    def test_baseline_only_is_still_benign(self, gate):
        # The inverse direction (retired benchmark) stays a non-failure.
        baseline = _report_with({"a": 10.0, "retired": 5.0})
        current = _report_with({"a": 10.0})
        assert gate(baseline, current) == 0

    def test_malformed_entry_reports_instead_of_crashing(self, gate, capsys):
        baseline = _report_with({"a": 10.0})
        current = _report_with({"a": 10.0})
        current["benchmarks"]["broken"] = {"value": 1.0}  # no normalized/unit/meta
        # An entry is present or absent: a null where the number belongs is
        # as malformed as a missing key.
        current["benchmarks"]["a"]["value"] = None
        assert gate(baseline, current) == 1
        err = capsys.readouterr().err
        assert "broken" in err and "missing required key" in err
        assert "a: report entry is malformed" in err


class TestReporting:
    def test_no_gate_reports_but_exits_zero(self, gate):
        baseline = _report_with({"a": 10.0})
        current = _report_with({"a": 1.0})  # 10x regression
        assert gate(baseline, current) == 1
        assert gate(baseline, current, "--no-gate") == 0

    def test_markdown_trend_table(self, gate, tmp_path):
        baseline = _report_with({"a": 10.0, "multiplex_speedup": 2.5})
        current = _report_with({"a": 12.0, "multiplex_speedup": 2.6})
        md_path = tmp_path / "summary.md"
        assert gate(baseline, current, "--markdown", str(md_path)) == 0
        table = md_path.read_text()
        assert "| benchmark |" in table
        assert "`multiplex_speedup`" in table
        assert "+20.0%" in table  # a's delta
        assert "✅" in table

    def test_markdown_marks_floor_failures(self, gate, tmp_path):
        baseline = _report_with({"multiplex_speedup": 2.5}, floors={"multiplex_speedup": 2.0})
        current = _report_with({"multiplex_speedup": 1.0}, floors={"multiplex_speedup": 2.0})
        md_path = tmp_path / "summary.md"
        assert gate(baseline, current, "--markdown", str(md_path), "--no-gate") == 0
        assert "BELOW FLOOR" in md_path.read_text()
