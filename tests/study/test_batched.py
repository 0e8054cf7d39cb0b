"""Batched ask/tell must be byte-for-byte equivalent to the single path.

``Study.ask_batch`` / ``tell_batch`` and ``Scheduler.next_job_batch`` /
``report_batch`` are loops over the single-job calls — the jobs handed out,
the rng draws consumed, the journal bytes written, and the telemetry stream
emitted must be *identical* to driving the same seeded scheduler one ask
and one tell at a time.  These tests pin that contract for ASHA,
synchronous SHA, and Hyperband, and that no scheduler grows a second body.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from repro.backend.simulation import SimulatedCluster
from repro.core import SCHEDULERS, Scheduler, build_scheduler
from repro.experiments.toys import toy_objective, toy_space
from repro.study import Study
from repro.telemetry import InMemorySink, TelemetryHub

SCHEDULER_NAMES = ["asha", "sha", "hyperband"]


def make_scheduler(name: str):
    kwargs = {"max_trials": 64} if name == "asha" else {}
    return build_scheduler(
        name,
        toy_space(),
        np.random.default_rng(7),
        min_resource=1.0,
        max_resource=9.0,
        eta=3,
        kwargs=kwargs,
    )


def fake_loss(job) -> float:
    # Deterministic, config-dependent, rng-free: equivalence must hold for
    # any loss stream, so keep the one thing under test isolated.
    return job.config["quality"] * (1.0 + 1.0 / (1.0 + job.resource))


def job_key(job):
    return (job.job_id, job.trial_id, job.rung, job.bracket, job.resource, dict(job.config))


def drive(scheduler, n_jobs: int, batch: int, *, batched: bool):
    """Ask ``batch`` jobs, tell their losses, repeat — identical interleaving
    on both paths; only the API (batch calls vs loops of single calls)
    differs, which is exactly the equivalence under test."""
    sink = InMemorySink()
    scheduler.attach_telemetry(TelemetryHub([sink]))
    seen = []
    while len(seen) < n_jobs and not scheduler.is_done():
        k = min(batch, n_jobs - len(seen))
        if batched:
            jobs = scheduler.next_job_batch(k)
        else:
            jobs = []
            for _ in range(k):
                job = scheduler.next_job()
                if job is None:
                    break
                jobs.append(job)
        if not jobs:
            break
        seen.extend(job_key(j) for j in jobs)
        results = [(j, fake_loss(j)) for j in jobs]
        if batched:
            scheduler.report_batch(results)
        else:
            for job, loss in results:
                scheduler.report(job, loss)
    return seen, [e.to_dict() for e in sink.events], _statuses(scheduler)


def _statuses(scheduler):
    return {tid: t.status for tid, t in scheduler.trials.items()}


@pytest.mark.parametrize("name", SCHEDULER_NAMES)
@pytest.mark.parametrize("batch", [2, 7, 32])
def test_scheduler_batch_matches_single(name, batch):
    ref = drive(make_scheduler(name), 400, batch, batched=False)
    got = drive(make_scheduler(name), 400, batch, batched=True)
    assert got[0] == ref[0]  # identical job sequence (ids, rungs, configs)
    assert got[1] == ref[1]  # identical telemetry stream, event for event
    assert got[2] == ref[2]  # identical final trial statuses


@pytest.mark.parametrize("name", SCHEDULERS)
def test_no_scheduler_overrides_the_batch_loops(name):
    # One body each: the base-class loops over next_job/report are the only
    # batch implementations, so a second copy of a scheduler's dispatch or
    # report logic cannot drift from the first.
    scheduler = build_scheduler(
        name, toy_space(), np.random.default_rng(0), min_resource=1.0, max_resource=9.0, eta=3
    )
    for cls in type(scheduler).__mro__:
        if cls not in (Scheduler, object):
            assert "next_job_batch" not in vars(cls), cls.__name__
            assert "report_batch" not in vars(cls), cls.__name__


@pytest.mark.parametrize("name", SCHEDULER_NAMES)
def test_study_batch_journal_bytes_identical(name, tmp_path):
    def run(path: Path, batched: bool) -> bytes:
        study = Study(make_scheduler(name), journal=path)
        done = 0
        while done < 300 and not study.is_done():
            if batched:
                jobs = study.ask_batch(9)
            else:
                jobs, job = [], study.ask()
                while job is not None and len(jobs) < 9:
                    jobs.append(job)
                    job = None if len(jobs) == 9 or study.is_done() else study.ask()
            if not jobs:
                break
            done += len(jobs)
            results = [(j, fake_loss(j)) for j in jobs]
            if batched:
                study.tell_batch(results, time=float(done))
            else:
                for j, loss in results:
                    study.tell(j, loss, time=float(done))
        study.finalize()
        return path.read_bytes()

    single = run(tmp_path / "single.journal.jsonl", batched=False)
    batch = run(tmp_path / "batch.journal.jsonl", batched=True)
    assert batch == single


def test_orphaned_jobs_drain_fifo_after_restore(tmp_path):
    # Asked-but-untold jobs recorded in the journal come back as orphans on
    # resume; both ask() and ask_batch() must re-issue them in the exact
    # order they were first handed out (the deque regression test — the old
    # list.pop(0) was quadratic but order-correct, so order is the contract).
    path = tmp_path / "run.journal.jsonl"
    study = Study(make_scheduler("asha"), journal=path)
    asked = [study.ask() for _ in range(8)]
    study.finalize()

    resumed = Study.resume(path, scheduler=make_scheduler("asha"), mode="restore")
    assert [j.job_id for j in resumed.orphaned_jobs] == [j.job_id for j in asked]
    redone = [resumed.ask() for _ in range(3)]
    assert [j.job_id for j in redone] == [j.job_id for j in asked[:3]]

    resumed2 = Study.resume(path, scheduler=make_scheduler("asha"), mode="restore")
    batch = resumed2.ask_batch(5)
    assert [j.job_id for j in batch] == [j.job_id for j in asked[:5]]


@pytest.mark.parametrize("name", SCHEDULER_NAMES)
def test_simulator_batched_fill_matches_recorded_run(name):
    # The simulator asks once per free worker whether or not a hub records
    # the run; an observed run and a bare one must produce the same
    # measurements, completions, and dispatch count for the same seeds —
    # including across the rung barriers of SHA and Hyperband, where the
    # hub-only ``worker_idle`` emission sits.
    def run(with_hub: bool):
        hub = TelemetryHub([InMemorySink()]) if with_hub else None
        cluster = SimulatedCluster(4, seed=11, straggler_std=0.2)
        return cluster.run(
            make_scheduler(name),
            toy_objective(max_resource=9.0),
            time_limit=200.0,
            telemetry=hub,
        )

    recorded, bare = run(True), run(False)
    assert bare.measurements == recorded.measurements
    assert bare.completions == recorded.completions
    assert bare.jobs_dispatched == recorded.jobs_dispatched
