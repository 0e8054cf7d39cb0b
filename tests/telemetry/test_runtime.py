"""Runtime probe layer: registry, exposition, scraper, CLI, byte-identity.

The observability contract has two halves and both are pinned here:

* **costs nothing when off** — with no registry installed every probe
  accessor returns ``None`` and instrumented classes behave exactly as
  before (the perf half of this is gated by the ``observability_overhead``
  benchmark);
* **changes nothing when on** — enabled probes write wall-clock readings
  only into the registry, so journals, telemetry streams and golden
  chrome traces stay byte-identical to an unprobed run.

Plus the exposition format itself: :func:`render_prometheus` must be
byte-stable and must satisfy its own strict :func:`validate_exposition`.
"""

from __future__ import annotations

import io
import json

import numpy as np
import pytest

from repro.backend.events import EventQueue
from repro.backend.simulation import SimulatedCluster
from repro.core import build_scheduler
from repro.experiments.toys import toy_objective, toy_space
from repro.study import Journal, Study, StudyMultiplexer
from repro.telemetry import JSONLSink, MetricsRegistry, TelemetryHub
from repro.telemetry.exposition import render_prometheus, series_key, validate_exposition
from repro.telemetry.runtime import (
    CATALOGUE,
    MUX_STUDY_LABEL_CAP,
    RuntimeScraper,
    collect_mux,
    install_runtime_registry,
    main,
    probes,
    render_report,
    runtime_registry,
    uninstall_runtime_registry,
    watch,
)

OBJECTIVE = toy_objective()


@pytest.fixture(autouse=True)
def _clean_registry():
    """No test leaks a process-global registry into its neighbours."""
    uninstall_runtime_registry()
    yield
    uninstall_runtime_registry()


@pytest.fixture
def registry():
    return install_runtime_registry()


def make_scheduler(seed: int):
    return build_scheduler(
        "asha",
        toy_space(),
        np.random.default_rng(seed),
        min_resource=1.0,
        max_resource=9.0,
        eta=3,
    )


def run_mux(tmp_path, n: int = 3, *, scraper=None, wal: bool = False, **mux_kwargs):
    """A small multiplexed workload touching every instrumented subsystem."""
    mux = StudyMultiplexer(
        wal_path=(tmp_path / "journals.wal") if wal else None,
        scraper=scraper,
        **mux_kwargs,
    )
    for i in range(n):
        study = Study(
            make_scheduler(i),
            journal=Journal(tmp_path / f"mux_{i}.jsonl", writer=mux.journal_writer),
        )
        mux.add(
            study,
            OBJECTIVE,
            cluster=SimulatedCluster(4, seed=1000 + i, straggler_std=0.3),
            time_limit=60.0,
        )
    # Return the mux too: its starvation collector holds only a weakref, so
    # letting the mux die would prune the gauges before the caller snapshots.
    return mux, mux.run()


# ---------------------------------------------------------------------------
# The off-by-default contract and the probe catalogue
# ---------------------------------------------------------------------------

#: Labels each labelled bundle is resolved with somewhere in ``src/``.
BUNDLE_LABELS = {
    "journal": {"target": "journal"},
    "wal": {"target": "wal"},
    "backend": {"backend": "threads"},
    "retries": {"backend": "simulation"},
}


def test_probe_accessors_return_none_without_registry():
    assert runtime_registry() is None
    for bundle in CATALOGUE:
        assert probes(bundle, **BUNDLE_LABELS.get(bundle, {})) is None
    watch(StudyMultiplexer(), collect_mux)  # attaching a collector is a no-op too
    with pytest.raises(KeyError):
        probes("no_such_bundle")


def test_instrumented_classes_hold_no_probes_without_registry(tmp_path):
    queue = EventQueue()
    assert queue._probes is None
    journal = Journal(tmp_path / "j.jsonl")
    assert journal._probes is None
    study = Study(make_scheduler(0))
    assert study._probes is None
    mux = StudyMultiplexer()
    assert mux.journal_writer._probes is None
    mux.add(study, OBJECTIVE, cluster=SimulatedCluster(2, seed=0), time_limit=5.0)
    assert mux._runs[0].retry_probes is None
    mux.run()
    assert mux._runs[0].obs is None


def test_every_bundle_resolves_its_catalogue_rows(registry):
    for bundle, rows in CATALOGUE.items():
        labels = BUNDLE_LABELS.get(bundle, {})
        resolved = probes(bundle, **labels)
        unset = [slot for slot in resolved.__slots__ if not hasattr(resolved, slot)]
        assert sorted(set(resolved.__slots__) - set(unset)) == sorted(row[0] for row in rows)
        for attribute, kind, family, help, labelled in rows:
            key = series_key(family, labels if labelled else None)
            store = getattr(registry, f"{kind}s")
            assert getattr(resolved, attribute) is store[key]
            assert registry.snapshot()["families"][family]["help"] == help


def test_probe_bundles_are_shared_per_registry_and_label_set(registry):
    # The 10k-study constraint: every journal holds the same namespace, so
    # label mangling and family registration happen once, not per study.
    first = probes("journal", target="journal")
    assert probes("journal", target="journal") is first
    wal = probes("journal", target="wal")
    assert wal is not first
    assert wal.bytes is first.bytes  # unlabelled rows are process-wide
    assert wal.fsyncs is not first.fsyncs
    install_runtime_registry()  # a new registry starts a new cache
    assert probes("journal", target="journal") is not first


def test_docs_catalogue_matches_code(tmp_path, registry):
    """docs/observability.md lists exactly the code's families — no drift."""
    import re
    from pathlib import Path

    doc = (Path(__file__).parents[2] / "docs" / "observability.md").read_text()
    section = doc.split("## Probe catalogue")[1].split("\n## ")[0]
    documented = [
        family
        for line in section.splitlines()
        if line.startswith("| `")
        for family in re.findall(r"`([a-z_]+)`", line.split("|")[1])
    ]
    assert len(documented) == len(set(documented))
    catalogue = {row[2] for rows in CATALOGUE.values() for row in rows}
    # The collector gauges are whatever a scrape of a live mux publishes
    # beyond the catalogue.
    mux, _ = run_mux(tmp_path, 2)
    collected = set(registry.snapshot()["families"]) - catalogue
    assert len(collected) == 8
    assert set(documented) == catalogue | collected


def test_install_uninstall_roundtrip():
    reg = install_runtime_registry()
    assert runtime_registry() is reg
    custom = MetricsRegistry()
    assert install_runtime_registry(custom) is custom
    assert runtime_registry() is custom
    uninstall_runtime_registry()
    assert runtime_registry() is None


# ---------------------------------------------------------------------------
# Labelled registry
# ---------------------------------------------------------------------------


def test_series_key_mangling():
    assert series_key("m", None) == "m"
    assert series_key("m", {}) == "m"
    assert series_key("m", {"b": 1, "a": "x"}) == 'm{a="x",b="1"}'
    # Escaping: backslash, quote, newline.
    assert series_key("m", {"v": 'a"b\\c\nd'}) == 'm{v="a\\"b\\\\c\\nd"}'


def test_labelled_counters_are_distinct_series(registry):
    a = registry.counter("reqs_total", labels={"backend": "threads"})
    b = registry.counter("reqs_total", labels={"backend": "processes"})
    assert a is not b
    a.inc(2)
    b.inc(3)
    snap = registry.snapshot()
    assert snap["counters"]['reqs_total{backend="threads"}'] == 2
    assert snap["counters"]['reqs_total{backend="processes"}'] == 3
    assert snap["families"]["reqs_total"]["labels"] == ["backend"]


def test_family_type_conflict_raises(registry):
    registry.counter("thing_total")
    with pytest.raises(ValueError, match="already registered as counter"):
        registry.gauge("thing_total")


def test_family_help_and_label_union(registry):
    registry.counter("x_total", labels={"a": 1})
    registry.counter("x_total", help="late help", labels={"b": 2})
    fam = registry.snapshot()["families"]["x_total"]
    assert fam["help"] == "late help"
    assert fam["labels"] == ["a", "b"]


def test_invalid_names_rejected(registry):
    with pytest.raises(ValueError, match="invalid metric name"):
        registry.counter("bad name")
    with pytest.raises(ValueError, match="invalid label name"):
        registry.counter("ok_total", labels={"bad-label": 1})


def test_collector_runs_at_snapshot_and_prunes(registry):
    calls = []
    registry.add_collector(lambda: calls.append(1))
    registry.snapshot()
    registry.snapshot()
    assert len(calls) == 2
    dead_calls = []
    registry.add_collector(lambda: (dead_calls.append(1), False)[1])
    registry.snapshot()
    registry.snapshot()
    assert len(dead_calls) == 1  # pruned after reporting itself dead


def test_queue_collector_prunes_after_gc(registry):
    queue = EventQueue()
    queue.push(1.0, "completion")
    assert len(registry._collectors) == 1
    snap = registry.snapshot()
    assert snap["gauges"]["event_queue_depth"] == 1.0
    del queue
    import gc

    gc.collect()
    registry.snapshot()
    assert registry._collectors == []


# ---------------------------------------------------------------------------
# Prometheus exposition
# ---------------------------------------------------------------------------


def populated_registry() -> MetricsRegistry:
    reg = MetricsRegistry()
    reg.counter("b_total", help="a counter", labels={"k": "v"}).inc(3)
    reg.counter("b_total", labels={"k": "w"}).inc(1.5)
    reg.gauge("a_gauge", help="a gauge").set(2.5)
    hist = reg.histogram("c_seconds", help="a histogram")
    for v in (0.1, 0.2, 0.3, 0.4):
        hist.observe(v)
    reg.histogram("d_empty", help="never observed")
    return reg


def test_render_prometheus_is_byte_stable():
    reg = populated_registry()
    first = render_prometheus(reg)
    second = render_prometheus(reg)
    assert first == second
    assert first.endswith("\n")
    # And through a snapshot JSON round-trip (the scraper/CLI path).
    snap = json.loads(json.dumps(reg.snapshot()))
    assert render_prometheus(snap) == first


def test_render_prometheus_structure():
    text = render_prometheus(populated_registry())
    lines = text.splitlines()
    assert "# HELP a_gauge a gauge" in lines
    assert "# TYPE a_gauge gauge" in lines
    assert "a_gauge 2.5" in lines
    assert "# TYPE b_total counter" in lines
    assert 'b_total{k="v"} 3' in lines
    assert 'b_total{k="w"} 1.5' in lines
    # Histograms render as summaries with quantiles + _sum/_count.
    assert "# TYPE c_seconds summary" in lines
    assert any(line.startswith('c_seconds{quantile="0.5"} ') for line in lines)
    assert any(line.startswith('c_seconds{quantile="0.99"} ') for line in lines)
    assert any(line.startswith("c_seconds_sum ") for line in lines)
    assert "c_seconds_count 4" in lines
    # Empty histogram: no quantiles, but _sum/_count still present.
    assert "d_empty_count 0" in lines
    assert not any(line.startswith("d_empty{") for line in lines)
    # Families are sorted.
    family_order = [line.split(" ")[2] for line in lines if line.startswith("# TYPE ")]
    assert family_order == sorted(family_order)


def test_render_prometheus_passes_own_validator():
    assert validate_exposition(render_prometheus(populated_registry())) == []


def test_validator_catches_violations():
    assert validate_exposition("") == ["empty exposition"]
    assert any(
        "end with a newline" in v
        for v in validate_exposition("# TYPE a counter\na 1")
    )
    assert any(
        "before any # TYPE" in v for v in validate_exposition("a 1\n")
    )
    assert any(
        "out of sorted order" in v
        for v in validate_exposition("# TYPE b counter\nb 1\n# TYPE a counter\na 1\n")
    )
    assert any(
        "duplicate sample" in v
        for v in validate_exposition("# TYPE a counter\na 1\na 2\n")
    )
    assert any(
        "is negative" in v for v in validate_exposition("# TYPE a counter\na -3\n")
    )
    assert any(
        "unparseable value" in v
        for v in validate_exposition("# TYPE a counter\na wat\n")
    )
    assert any(
        "does not belong" in v
        for v in validate_exposition("# TYPE a counter\nother 1\n")
    )
    assert any(
        "malformed sample" in v
        for v in validate_exposition("# TYPE a counter\na{b=unquoted} 1\n")
    )
    # Negative gauges are fine; only counters must be non-negative.
    assert validate_exposition("# TYPE a gauge\na -3\n") == []


# ---------------------------------------------------------------------------
# End-to-end: probes populated by a real multiplexed run
# ---------------------------------------------------------------------------


def test_probes_populated_by_mux_run(tmp_path, registry):
    mux, out = run_mux(tmp_path, 3, wal=True, fair_share=1)
    snap = registry.snapshot()
    counters, histograms = snap["counters"], snap["histograms"]
    assert counters["event_queue_pushes_total"] > 0
    assert counters["event_queue_pops_total"] > 0
    assert counters["wal_commits_total"] > 0
    assert counters['journal_fsync_total{target="wal"}'] >= 1
    assert counters["journal_bytes_total"] > 0
    assert counters["mux_ticks_total"] == out.ticks
    assert counters["mux_throttle_total"] > 0  # fair_share=1 on 4-worker studies
    assert counters["mux_dispatched_jobs_total"] == sum(
        r.jobs_dispatched for r in out.results
    )
    assert counters["study_asks_total"] > 0
    assert histograms["study_tell_seconds"]["count"] > 0
    assert histograms["wal_commit_bytes"]["count"] > 0
    # Finished studies never read as starving, whole cluster drained.
    gauges = snap["gauges"]
    assert gauges["mux_studies_active"] == 0.0
    assert gauges["mux_starvation_age_max_ticks"] == 0.0
    for i in range(3):
        assert gauges[f'mux_starvation_age_ticks{{study="{i}"}}'] == 0.0
    # The whole run's exposition is valid and byte-stable.
    text = render_prometheus(registry)
    assert validate_exposition(text) == []
    assert render_prometheus(registry) == text


def test_hub_attached_solo_run_counts_every_ask(registry):
    # One increment per job handed out, on the path every backend uses (one
    # ask per freed worker): the exported count is the number of jobs asked.
    study = Study(make_scheduler(0))
    cluster = SimulatedCluster(4, seed=1000, straggler_std=0.3)
    result = cluster.run(study, OBJECTIVE, time_limit=60.0, telemetry=TelemetryHub())
    counters = registry.snapshot()["counters"]
    assert result.jobs_dispatched > 0
    assert counters["study_asks_total"] == result.jobs_dispatched
    assert counters["study_tells_total"] == len(result.measurements)


def test_simulated_retries_are_exported(registry):
    # Retries are counted where every backend routes failures, so the
    # simulator exports them — without growing dispatch/collect series.
    from repro.backend import RetryPolicy

    cluster = SimulatedCluster(4, seed=1000, straggler_std=0.3, drop_probability=0.2)
    result = cluster.run(
        make_scheduler(0),
        OBJECTIVE,
        time_limit=60.0,
        retry_policy=RetryPolicy(max_attempts=3, backoff=0.5),
    )
    counters = registry.snapshot()["counters"]
    assert result.jobs_retried > 0
    assert counters['backend_retries_total{backend="simulation"}'] == result.jobs_retried
    assert not any(key.startswith("backend_dispatch_total") for key in counters)


def test_threaded_retries_are_counted_at_the_same_site(registry):
    from repro.backend import FailureInjectingObjective, RetryPolicy, ThreadPoolBackend
    from repro.core import RandomSearch

    objective = toy_objective(max_resource=9.0, constant=False)
    search = RandomSearch(
        objective.space, np.random.default_rng(0), max_resource=9.0, max_trials=4
    )
    result = ThreadPoolBackend(2).run(
        search,
        FailureInjectingObjective(objective, crash_first=1),
        time_limit=30.0,
        retry_policy=RetryPolicy(max_attempts=3),
    )
    counters = registry.snapshot()["counters"]
    assert result.jobs_retried == 4  # one injected crash per config
    assert counters['backend_retries_total{backend="threads"}'] == 4


def test_mux_study_label_cardinality_cap(registry):
    class FakeStudy:
        def is_done(self):
            return False

    class FakeRun:
        def __init__(self):
            self.done = False
            self.study = FakeStudy()
            self.free_ids = [0]
            self.last_dispatch_tick = 0

    class FakeMux:
        pass

    mux = FakeMux()
    mux._runs = [FakeRun() for _ in range(MUX_STUDY_LABEL_CAP + 10)]
    mux._tick_box = [7]
    watch(mux, collect_mux)
    gauges = registry.snapshot()["gauges"]
    per_study = [k for k in gauges if k.startswith("mux_starvation_age_ticks{")]
    assert len(per_study) == MUX_STUDY_LABEL_CAP
    # Aggregates still see every study, even beyond the label cap.
    assert gauges["mux_pending_asks_cluster"] == float(MUX_STUDY_LABEL_CAP + 10)
    assert gauges["mux_starvation_age_max_ticks"] == 7.0


# ---------------------------------------------------------------------------
# Byte-identity: probed runs change nothing outside the registry
# ---------------------------------------------------------------------------


def run_solo_artifacts(tmp_path, tag: str):
    """One seeded journaled+telemetry+trace run; returns its output bytes."""
    buf = io.StringIO()
    hub = TelemetryHub()
    hub.add_sink(JSONLSink(buf))
    journal_path = tmp_path / f"{tag}.jsonl"
    study = Study(make_scheduler(0), journal=Journal(journal_path))
    cluster = SimulatedCluster(
        4, seed=1000, straggler_std=0.3, drop_probability=0.01, churn_rate=0.05
    )
    result = cluster.run(study, OBJECTIVE, time_limit=60.0, telemetry=hub, trace=True)
    return (
        journal_path.read_bytes(),
        buf.getvalue(),
        result.trace.chrome_trace_json(),
    )


def test_enabled_probes_keep_solo_run_byte_identical(tmp_path):
    plain = run_solo_artifacts(tmp_path, "plain")
    install_runtime_registry()
    probed = run_solo_artifacts(tmp_path, "probed")
    registry = runtime_registry()
    # The probes actually fired (this was not a trivially unprobed run)...
    assert registry.snapshot()["counters"]["event_queue_pushes_total"] > 0
    # ...and every run artifact is still byte-identical.
    assert probed[0] == plain[0]  # journal bytes
    assert probed[1] == plain[1]  # telemetry JSONL
    assert probed[2] == plain[2]  # chrome trace
    assert plain[1]  # not trivially empty


def test_enabled_probes_keep_mux_journals_byte_identical(tmp_path):
    (tmp_path / "plain").mkdir()
    (tmp_path / "probed").mkdir()
    run_mux(tmp_path / "plain", 2, wal=True)
    install_runtime_registry()
    scraper = RuntimeScraper(runtime_registry(), tmp_path / "snap.jsonl", every=16)
    run_mux(tmp_path / "probed", 2, wal=True, scraper=scraper)
    for i in range(2):
        plain = (tmp_path / "plain" / f"mux_{i}.jsonl").read_bytes()
        probed = (tmp_path / "probed" / f"mux_{i}.jsonl").read_bytes()
        assert plain == probed
        assert plain  # not trivially empty
    assert scraper.snapshots_written > 0


# ---------------------------------------------------------------------------
# Scraper
# ---------------------------------------------------------------------------


def test_scraper_cadence_and_final_snapshot(tmp_path, registry):
    registry.counter("ticks_total")
    path = tmp_path / "snap.jsonl"
    scraper = RuntimeScraper(registry, path, every=4)
    for _ in range(10):
        registry.counter("ticks_total").inc()
        scraper.on_tick()
    scraper.close()
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    # 10 ticks at every=4 -> snapshots at tick 4 and 8, plus one at close.
    assert [rec["tick"] for rec in lines] == [4, 8, 10]
    for rec in lines:
        assert rec["schema"] == RuntimeScraper.SCHEMA
        assert "wall_time" in rec
    assert lines[-1]["snapshot"]["counters"]["ticks_total"] == 10
    scraper.close()  # idempotent
    with pytest.raises(ValueError, match="closed"):
        scraper.snapshot()


def test_scraper_rejects_bad_cadence(tmp_path, registry):
    with pytest.raises(ValueError, match="cadence"):
        RuntimeScraper(registry, tmp_path / "s.jsonl", every=0)


def test_starvation_gauges_reach_scraped_snapshots(tmp_path, registry):
    """The scraper's mid-run snapshots carry the per-study mux gauges."""
    scraper = RuntimeScraper(registry, tmp_path / "snap.jsonl", every=8)
    run_mux(tmp_path, 2, scraper=scraper, fair_share=1)
    lines = [json.loads(line) for line in (tmp_path / "snap.jsonl").read_text().splitlines()]
    assert len(lines) >= 2
    mid = lines[len(lines) // 2]["snapshot"]["gauges"]
    assert 'mux_pending_asks{study="0"}' in mid
    assert 'mux_starvation_age_ticks{study="1"}' in mid


# ---------------------------------------------------------------------------
# Ops CLI
# ---------------------------------------------------------------------------


@pytest.fixture
def snapshot_file(tmp_path, registry):
    scraper = RuntimeScraper(registry, tmp_path / "snap.jsonl", every=16)
    run_mux(tmp_path, 2, scraper=scraper, fair_share=1)
    return tmp_path / "snap.jsonl"


def test_cli_prom_and_validate(snapshot_file, capsys):
    assert main([str(snapshot_file), "--prom", "--validate"]) == 0
    out, err = capsys.readouterr()
    assert validate_exposition(out) == []
    assert "exposition: ok" in err
    assert "mux_ticks_total" in out


def test_cli_report(snapshot_file, capsys):
    assert main([str(snapshot_file), "--report"]) == 0
    out, _ = capsys.readouterr()
    assert "runtime report:" in out
    assert "multiplexer health:" in out
    assert "starvation_age" in out
    assert "event_queue_pushes_total" in out


def test_cli_default_is_report(snapshot_file, capsys):
    assert main([str(snapshot_file)]) == 0
    assert "runtime report:" in capsys.readouterr().out


def test_cli_watch_exits_on_static_file(snapshot_file, capsys):
    assert main([str(snapshot_file), "--watch", "--interval", "0.01"]) == 0
    out, err = capsys.readouterr()
    assert "runtime report:" in out
    assert "stopped growing" in err


def test_cli_event_only_flag_on_snapshots_is_a_usage_error(snapshot_file, tmp_path, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main([str(snapshot_file), "--chrome", str(tmp_path / "trace.json")])
    assert exit_info.value.code == 2
    assert "this file holds snapshots" in capsys.readouterr().err


def test_cli_missing_snapshots(tmp_path, capsys):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    assert main([str(empty), "--report"]) == 1
    assert "no snapshots" in capsys.readouterr().err


def test_cli_validate_flags_bad_exposition(tmp_path, capsys, registry):
    # A snapshot whose counter went negative renders an invalid exposition.
    registry.counter("broken_total").value = -1.0
    path = tmp_path / "bad.jsonl"
    scraper = RuntimeScraper(registry, path, every=1)
    scraper.close()
    assert main([str(path), "--validate"]) == 1
    assert "is negative" in capsys.readouterr().err


def test_render_report_empty():
    assert render_report([]) == "no snapshots"
