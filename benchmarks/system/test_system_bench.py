"""Tests of the system benchmark itself (not part of tier-1).

Run as ``PYTHONPATH=src python -m pytest benchmarks/system -q``.
"""

from __future__ import annotations

import json
import os
import re

import numpy as np
import pytest

import harness
import run
import schema
import workloads
from spans import Tracer, self_times

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


# ------------------------------------------------------------------ schema


def test_benchmark_json_is_what_schema_declares():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        committed = json.load(fh)
    assert committed == schema.manifest()
    assert set(committed) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }


def test_manifest_meets_the_contract_limits():
    manifest = schema.manifest()
    assert 2 <= len(manifest["workloads"]) <= 8
    assert 1 <= len(manifest["end_to_end"]) <= 16
    assert 1 <= len(manifest["per_layer"]) <= 128
    assert isinstance(manifest["run_seconds"], int) and 1 <= manifest["run_seconds"] <= 60
    assert len(json.dumps(manifest)) <= 64 * 1024
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer")
             for entry in manifest[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for workload in manifest["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in manifest["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in manifest["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in manifest["end_to_end"] + manifest["per_layer"]:
        assert UNIT.match(metric["unit"]) and metric["better"] in ("lower", "higher")
    setup = next(m for m in manifest["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in manifest["end_to_end"])
    for path in manifest["paths"]:
        assert os.path.isdir(os.path.join(run.ROOT, path))
    assert not any(part.startswith("/") or ".." in part for part in manifest["command"])


def test_every_layer_metric_names_what_it_moves_and_where():
    end_to_end = {m.name for m in schema.END_TO_END}
    for metric in schema.PER_LAYER:
        if metric.name.startswith("bench."):
            assert metric.moves is None and metric.on is None  # the benchmark's own health
            continue
        assert metric.moves in end_to_end, metric.name
        assert metric.on in schema.WORKLOADS, metric.name
    assert set(workloads.WORKLOADS) == set(schema.WORKLOADS)


# --------------------------------------------------------------- self time


def test_self_time_on_a_hand_built_span_tree():
    #  0 root      [0, 10]
    #  1 . a       [1, 5]
    #  2 . . b     [2, 3]
    #  3 . . b     [3, 4.5]
    #  4 . c       [6, 9]
    #  5 other root [20, 21]
    start = np.array([0.0, 1.0, 2.0, 3.0, 6.0, 20.0])
    end = np.array([10.0, 5.0, 3.0, 4.5, 9.0, 21.0])
    parent = np.array([-1, 0, 1, 1, 0, -1])
    own = self_times(start, end, parent)
    assert own.tolist() == [10 - 4 - 3, 4 - 1 - 1.5, 1.0, 1.5, 3.0, 1.0]
    # Self times under a root sum to the root's duration.
    assert own[:5].sum() == pytest.approx(10.0)


def test_tracer_nesting_entry_calls_and_values():
    tracer = Tracer()

    def leaf(n):
        return list(range(n))

    batch_of = tracer.wrap(leaf, "core", "next_job", lambda result, args: len(result))

    def outer():
        return batch_of(2) + batch_of(0)

    # A same-layer wrapper around the two calls, plus a foreign-layer root.
    outer = tracer.wrap(outer, "core", "next_job", lambda result, args: len(result))
    with tracer.span("bench", "round"):
        assert outer() == [0, 1]
    stats = tracer.summarize()
    asks = stats[("core", "next_job")]
    assert asks.calls == 3
    assert asks.entry_calls == 1  # only `outer` has a parent in another layer
    assert asks.value == 4 and asks.entry_value == 2
    assert asks.entry_useful == 1
    # Nested same-layer time is not double counted: self times sum to the root's duration.
    assert stats[("bench", "round")].self_s + asks.self_s == pytest.approx(
        tracer.end[0] - tracer.start[0]
    )


def test_trace_jsonl_has_one_line_per_span(tmp_path):
    tracer = Tracer()
    with tracer.span("bench", "round"):
        tracer.wrap(lambda: None, "core", "report")()
    path = tmp_path / "trace.jsonl"
    tracer.write_jsonl(str(path))
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    assert [line["name"] for line in lines] == ["bench.round", "core.report"]
    assert [line["parent"] for line in lines] == [-1, 0]
    assert set(lines[0]) == {"name", "layer", "start", "end", "parent"}
    assert lines[0]["start"] <= lines[1]["start"] <= lines[1]["end"] <= lines[0]["end"]


# ------------------------------------------------------------ proxy purity


def _journal_bytes(workload, tmp_path, tracer):
    ctx = workloads.Ctx(seed=7, scale=0.004, workdir=str(tmp_path))
    ctx.new_round_dir()
    state = workload.build(ctx, tracer)
    outcome = workload.run(ctx, state, tracer)
    assert workload.verify(ctx, state, outcome) == []
    blobs = []
    for path in outcome.journals:
        with open(path, "rb") as fh:
            blobs.append(fh.read())
    return outcome.stats, blobs


@pytest.mark.parametrize("name", ["asktell_journal", "mux_durable_4k", "sim_asha_500w_observed"])
def test_proxies_do_not_change_journal_bytes(name, tmp_path):
    workload = workloads.WORKLOADS[name]
    plain_stats, plain = _journal_bytes(workload, tmp_path / "plain", None)
    tracer = Tracer()
    traced_stats, traced = _journal_bytes(workload, tmp_path / "traced", tracer)
    assert plain and plain == traced
    assert plain_stats == traced_stats
    assert len(tracer) > 0


def test_both_modes_report_exactly_the_declared_metrics(tmp_path):
    workload = workloads.WORKLOADS["asktell_journal"]
    common = dict(seed=3, seconds=0.0, scale=0.01, import_s=0.5, rounds=2)
    plain = harness.run_workload(workload, trace=False, workdir=str(tmp_path / "a"), **common)
    traced = harness.run_workload(
        workload, trace=True, workdir=str(tmp_path / "b"),
        trace_path=str(tmp_path / "trace.jsonl"), **common
    )
    assert plain.correct and traced.correct
    assert list(plain.metrics) == [m.name for m in schema.END_TO_END]
    assert list(traced.metrics) == [m.name for m in schema.PER_LAYER]
    assert all(entry["value"] > 0 for entry in plain.metrics.values())
    assert set(plain.result) == {"correct", "attempted", "failed", "metrics"}
    value = {name: entry["value"] for name, entry in traced.metrics.items()}
    assert value["telemetry.events"] == 0 and value["multiplex.ticks"] == 0
    assert value["journal.appends"] == traced.attempted // 3  # 2 untraced rounds + 1 traced
    assert value["study.latency_samples"] > 0
    shares = sum(v for name, v in value.items()
                 if name.endswith(".share") and name != "canonical.share")
    assert shares + value["bench.unattributed_share"] == pytest.approx(1.0)
    assert (tmp_path / "trace.jsonl").stat().st_size > 0
    assert not (tmp_path / "a").exists() and not (tmp_path / "b").exists()


# ------------------------------------------------------ failure accounting


class _CrashingSim(workloads.SimAsha):
    """A bare simulated search whose objective raises on every 40th training call."""

    def build(self, ctx, tracer):
        state = super().build(ctx, tracer)
        train, calls = state.objective.train, [0]

        def crashing_train(*args, **kwargs):
            calls[0] += 1
            if calls[0] % 40 == 0:
                raise RuntimeError("injected training crash")
            return train(*args, **kwargs)

        state.objective.train = crashing_train
        return state


def test_a_raising_objective_is_counted_and_exits_non_zero(tmp_path, monkeypatch, capsys):
    crashing = _CrashingSim("sim_asha_500w", observed=False, horizon=2.0)
    report = harness.run_workload(
        crashing, seed=0, seconds=0.0, trace=False, scale=0.02,
        workdir=str(tmp_path / "direct"), import_s=0.5, rounds=2,
    )
    assert report.failed > 0 and not report.correct
    assert 0 < report.failed / report.attempted < 1

    monkeypatch.setitem(workloads.WORKLOADS, "sim_asha_500w", crashing)
    code = run.main(["--workload", "sim_asha_500w", "--quick", "--rounds", "2",
                     "--workdir", str(tmp_path / "cli")])
    assert code != 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["failed"] > 0 and result["correct"] is False


def test_a_failed_check_fails_every_op_of_the_round(tmp_path):
    class Unverifiable(workloads.AskTellJournal):
        def verify(self, ctx, state, outcome):
            return ["injected check failure"]

    report = harness.run_workload(
        Unverifiable(), seed=0, seconds=0.0, trace=False, scale=0.01,
        workdir=str(tmp_path), import_s=0.5, rounds=2,
    )
    assert report.failed == report.attempted and not report.correct
