"""Crash/resume byte-identity: the journal's central guarantee.

A run killed at *any* point and resumed must finish with the same journal,
telemetry stream, and Chrome trace — byte for byte — as a run that was
never interrupted.  The scenario here includes stragglers, dropped jobs,
and a retry policy, so the fault paths (requeue/abandon records) are pinned
too.
"""

from __future__ import annotations

import gc
import io
import json
import warnings
from pathlib import Path

import numpy as np
import pytest

from repro.backend import RetryPolicy, SimulatedCluster, ThreadPoolBackend
from repro.backend.process_pool import ProcessPoolBackend
from repro.core import ASHA, build_scheduler
from repro.experiments.toys import toy_objective, toy_space
from repro.study import JournalError, JournalReplayError, JournalWriter, Study, read_journal
from repro.telemetry import JSONLSink, TelemetryHub
from repro.tune import FunctionObjective

GOLDEN_TRACE_DIR = Path(__file__).parents[1] / "integration" / "golden"


def make_scheduler():
    return build_scheduler(
        "asha",
        toy_space(),
        np.random.default_rng(7),
        min_resource=1.0,
        max_resource=9.0,
        eta=3,
        kwargs={"max_trials": 6},
    )


def run_scenario(
    journal,
    *,
    cluster_cls=SimulatedCluster,
    telemetry_path=None,
    trace=False,
    resume=False,
    objective=None,
):
    """One seeded faulty run (2 workers, drops, stragglers, retries)."""
    objective = objective if objective is not None else toy_objective()
    if resume:
        study = Study.resume(journal, scheduler=make_scheduler(), mode="replay")
    else:
        study = Study(make_scheduler(), journal=journal)
    cluster = cluster_cls(2, straggler_std=0.3, drop_probability=0.1, seed=11)
    hub = TelemetryHub([JSONLSink(telemetry_path)]) if telemetry_path else None
    result = cluster.run(
        study,
        objective,
        time_limit=200.0,
        telemetry=hub,
        retry_policy=RetryPolicy(max_attempts=2, backoff=0.5),
        trace=trace,
    )
    if hub is not None:
        hub.close()
    study.close()
    return result


class CountingObjective:
    """Delegating wrapper that counts real training calls."""

    def __init__(self, inner):
        self.inner = inner
        self.space = inner.space
        self.max_resource = inner.max_resource
        self.train_calls = 0

    def initial_state(self, config):
        return self.inner.initial_state(config)

    def train(self, state, config, from_resource, to_resource):
        self.train_calls += 1
        return self.inner.train(state, config, from_resource, to_resource)

    def cost(self, config, from_resource, to_resource):
        return self.inner.cost(config, from_resource, to_resource)


def test_kill_at_every_record_resumes_byte_identical(tmp_path):
    """The acceptance sweep: cut the journal after every record (and again

    with a torn half-record appended), resume, and demand byte equality."""
    reference_path = tmp_path / "ref.journal.jsonl"
    run_scenario(reference_path)
    reference = reference_path.read_bytes()
    lines = reference.splitlines(keepends=True)
    assert len(lines) >= 10, "scenario too small to exercise the sweep"

    kinds = [r.get("kind") for r in (json.loads(ln) for ln in lines)]
    assert "requeue" in kinds or "abandon" in kinds or "fail" in kinds, (
        "scenario exercises no fault path; the sweep would not cover "
        "requeue/abandon records"
    )

    for cut in range(1, len(lines)):
        for torn in (False, True):
            path = tmp_path / f"cut{cut}{'t' if torn else ''}.journal.jsonl"
            content = b"".join(lines[:cut])
            if torn:
                content += lines[cut][: max(1, len(lines[cut]) // 2)].rstrip(b"\n")
            path.write_bytes(content)
            run_scenario(path, resume=True)
            assert path.read_bytes() == reference, (
                f"resume after cut at record {cut} (torn={torn}) diverged"
            )


@pytest.mark.parametrize("cluster_cls", [SimulatedCluster, ProcessPoolBackend])
def test_resume_telemetry_and_trace_byte_identical(tmp_path, cluster_cls):
    ref_journal = tmp_path / "ref.journal.jsonl"
    ref_events = tmp_path / "ref.events.jsonl"
    ref = run_scenario(
        ref_journal, cluster_cls=cluster_cls, telemetry_path=ref_events, trace=True
    )
    ref_trace = json.dumps(ref.trace.to_chrome_trace(), sort_keys=True)

    lines = ref_journal.read_bytes().splitlines(keepends=True)
    cut = max(2, (2 * len(lines)) // 5)
    cut_journal = tmp_path / "cut.journal.jsonl"
    cut_journal.write_bytes(b"".join(lines[:cut]) + lines[cut][:7])

    resumed_events = tmp_path / "res.events.jsonl"
    resumed = run_scenario(
        cut_journal, cluster_cls=cluster_cls, telemetry_path=resumed_events,
        trace=True, resume=True,
    )
    assert cut_journal.read_bytes() == ref_journal.read_bytes()
    assert resumed_events.read_bytes() == ref_events.read_bytes()
    assert json.dumps(resumed.trace.to_chrome_trace(), sort_keys=True) == ref_trace
    assert len(resumed.measurements) == len(ref.measurements)


def test_replay_of_complete_run_trains_nothing(tmp_path):
    """Journalled losses are reused: a full replay never calls train()."""
    path = tmp_path / "run.journal.jsonl"
    run_scenario(path)
    counting = CountingObjective(toy_objective())
    run_scenario(path, resume=True, objective=counting)
    assert counting.train_calls == 0


def test_journaling_leaves_the_golden_telemetry_stream_unchanged(tmp_path):
    """Turning the journal on must not move a single telemetry byte.

    The golden ASHA trace was recorded before studies existed; the same
    scenario run through a journal-backed Study must still match it.
    """
    golden = (GOLDEN_TRACE_DIR / "asha.jsonl").read_text(encoding="utf-8")
    scheduler = ASHA(
        toy_space(),
        np.random.default_rng(3),
        min_resource=1,
        max_resource=9,
        eta=3,
        max_trials=30,
    )
    study = Study(scheduler, journal=tmp_path / "golden.journal.jsonl")
    buffer = io.StringIO()
    hub = TelemetryHub([JSONLSink(buffer)])
    SimulatedCluster(4, straggler_std=0.3, drop_probability=0.02, seed=7).run(
        study, toy_objective(max_resource=9.0), time_limit=60.0, telemetry=hub
    )
    hub.close()
    assert buffer.getvalue() == golden


def test_thread_backend_restore_mode_resumes(tmp_path):
    """Wall-clock runs cannot replay; restore mode catches the scheduler up."""
    path = tmp_path / "threads.journal.jsonl"
    objective = toy_objective()

    def fresh_scheduler():
        return build_scheduler(
            "asha", toy_space(), np.random.default_rng(3),
            min_resource=1.0, max_resource=9.0, eta=3, kwargs={"max_trials": 8},
        )

    ThreadPoolBackend(2).run(Study(fresh_scheduler(), journal=path), objective, time_limit=30.0)
    records, _, _ = read_journal(path)
    body = records[1:]
    told_before = sum(1 for r in body if r["kind"] == "tell")
    assert told_before >= 8

    # Cut mid-run, leaving a torn tail and at least one in-flight ask.
    lines = path.read_bytes().splitlines(keepends=True)
    cut = len(lines) // 2
    path.write_bytes(b"".join(lines[:cut]) + lines[cut][:6])

    restored = Study.resume(path, scheduler=fresh_scheduler(), mode="restore")
    carried = restored.num_trials
    assert carried > 0
    result = ThreadPoolBackend(2).run(restored, objective, time_limit=30.0)
    restored.close()
    records, _, terminated = read_journal(path)
    assert terminated
    finished_tells = sum(1 for r in records[1:] if r["kind"] == "tell")
    assert finished_tells >= told_before - 2  # crash forfeits at most in-flight work
    assert restored.best_trial() is not None
    assert result.measurements


def test_resume_missing_header_raises(tmp_path):
    """No header and no scheduler given: nothing to rebuild a scheduler from."""
    path = tmp_path / "empty.journal.jsonl"
    path.write_bytes(b"")
    with pytest.raises(Exception, match="header"):
        Study.resume(path)
    path.write_bytes(b'{"kind":"ask","job_id":0}\n')  # records, but the first is no header
    with pytest.raises(Exception, match="header"):
        Study.resume(path, scheduler=make_scheduler())


@pytest.mark.parametrize("on_disk", [b"", b'{"kind":"journal_hea'], ids=["empty", "torn-header"])
@pytest.mark.parametrize("mode", ["replay", "restore"])
@pytest.mark.parametrize("group_commit", [False, True], ids=["immediate", "group-commit"])
def test_resume_of_a_journal_that_died_before_its_header(tmp_path, on_disk, mode, group_commit):
    """Nothing valid on disk + a given scheduler: an empty study on a fresh journal.

    Zero bytes is what every group-commit journal holds between its
    creation and its writer's first commit; the resumed study must journal
    with a header, so that *its* journal resumes in turn.
    """
    path = tmp_path / "died-early.journal.jsonl"
    path.write_bytes(on_disk)
    writer = JournalWriter() if group_commit else None
    study = Study.resume(path, scheduler=make_scheduler(), mode=mode, journal_writer=writer)
    assert not study.replaying and study.orphaned_jobs == [] and study.num_trials == 0
    job = study.ask()
    study.tell(job, 0.5)
    study.close()
    records, _, terminated = read_journal(path)
    assert terminated
    assert [record["kind"] for record in records] == ["journal_header", "ask", "tell"]
    again = Study.resume(path, scheduler=make_scheduler(), mode="restore")
    assert again.num_trials == 1
    again.close()


@pytest.mark.parametrize("name", ["bohb", "vizier"])
def test_header_specs_of_the_composite_names_still_resume(tmp_path, name):
    """``"bohb"`` and ``"vizier"`` are registry rows now, not classes.

    ``head_specs/<name>.journal.jsonl`` was written by ``tune(...)`` while
    ``BOHB`` and ``VizierGP`` were still classes of their own (seed 3, two
    simulated workers, the header specs asserted below).  A bare
    ``Study.resume`` must rebuild the scheduler from the header and replay
    the whole job sequence — every ask and tell is verified against the
    journal — and finish on the very same bytes.
    """
    recorded = (Path(__file__).parent / "head_specs" / f"{name}.journal.jsonl").read_bytes()
    lines = recorded.splitlines(keepends=True)
    spec = json.loads(lines[0])["spec"]
    assert (spec["scheduler"], spec["scheduler_kwargs"]) == {
        "bohb": ("bohb", {"n": 9, "gamma": 0.2, "random_fraction": 0.2}),
        "vizier": ("vizier", {"num_init": 4, "max_trials": 8}),
    }[name]

    def train(config, state, from_resource, to_resource):
        return None, config["quality"] + 1.0 / to_resource

    path = tmp_path / "interrupted.journal.jsonl"
    path.write_bytes(b"".join(lines[: len(lines) // 2]))
    study = Study.resume(path)  # no scheduler: the header spec rebuilds it
    SimulatedCluster(2, seed=3).run(
        study, FunctionObjective(train, toy_space(), 9.0), time_limit=400.0
    )
    study.close()
    assert path.read_bytes() == recorded



def toy_asha(eta=3, **kwargs):
    return ASHA(toy_space(), np.random.default_rng(0), min_resource=1.0, max_resource=9.0,
                eta=eta, **kwargs)


@pytest.mark.parametrize("fault", ["diverges", "corrupt-line"])
def test_a_restore_that_raises_opens_nothing(tmp_path, fault):
    """The journal is opened only after the last record is driven.

    A resume that raises — the scheduler diverges from the journal, or a
    line mid-file is corrupt — leaks no open file, registers nothing with
    the writer, and leaves the file's bytes as they were (torn tail and all).
    """
    path = tmp_path / "ten.journal.jsonl"
    study = Study(toy_asha(), journal=path)
    for i in range(10):
        study.tell(study.ask(), 1.0 / (1 + i))
    study.close()
    raw = path.read_bytes()
    if fault == "corrupt-line":
        lines = raw.splitlines(keepends=True)
        lines[5] = b"{not json\n"
        raw = b"".join(lines)
    raw += b'{"kind":"ask","job'  # a torn tail a successful resume would heal
    path.write_bytes(raw)
    expected = JournalReplayError if fault == "diverges" else JournalError
    writer = JournalWriter()
    # A file left open warns when it is collected, from a finalizer that
    # cannot raise, so the warnings are recorded rather than made errors.
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for journal_writer in (None, writer):
            scheduler = toy_asha(eta=2, max_trials=1) if fault == "diverges" else toy_asha()
            with pytest.raises(expected):
                Study.resume(path, scheduler=scheduler, mode="restore",
                             journal_writer=journal_writer)
            gc.collect()
    assert [str(w.message) for w in caught if w.category is ResourceWarning] == []
    assert len(writer) == 0
    assert path.read_bytes() == raw
