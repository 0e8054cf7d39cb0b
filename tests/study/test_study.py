"""Study ask/tell semantics: manual driving, registry parity, pause, wrappers.

The golden fixture under ``tests/study/golden/`` pins the journal a manual
ask/tell loop writes for the seeded ASHA scenario below; the same bytes must
come out of ``tune()`` driving the identical configuration through the
simulated backend at one worker.  Regenerate (ONLY for an intentional
behaviour change):

    PYTHONPATH=src python tests/study/test_study.py
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from repro.backend.checkpoint import CheckpointStore
from repro.core import SCHEDULERS, ContractChecker, build_scheduler
from repro.experiments.toys import toy_space
from repro.study import Journal, Study, build_spec, read_journal
from repro.tune import FunctionObjective, tune

GOLDEN_DIR = Path(__file__).parent / "golden"
GOLDEN_JOURNAL = GOLDEN_DIR / "asha_manual.journal.jsonl"

#: The pinned scenario: seeded ASHA on the 1-d toy space, n=12 trials.
SCENARIO = dict(min_resource=1.0, max_resource=9.0, eta=3, seed=7)
SCHEDULER_KWARGS = {"max_trials": 12}


def train_fn(config, state, from_resource, to_resource):
    """Deterministic resumable training: loss decays toward ``quality``."""
    assert state is None or state == from_resource, "checkpoint handed back wrong state"
    loss = config["quality"] * (1.0 + 1.0 / (1.0 + to_resource))
    return to_resource, loss


def make_scheduler():
    return build_scheduler(
        "asha",
        toy_space(),
        np.random.default_rng(SCENARIO["seed"]),
        min_resource=SCENARIO["min_resource"],
        max_resource=SCENARIO["max_resource"],
        eta=SCENARIO["eta"],
        kwargs=dict(SCHEDULER_KWARGS),
    )


def make_spec():
    return build_spec(
        scheduler="asha",
        space=toy_space(),
        seed=SCENARIO["seed"],
        min_resource=SCENARIO["min_resource"],
        max_resource=SCENARIO["max_resource"],
        eta=SCENARIO["eta"],
        scheduler_kwargs=SCHEDULER_KWARGS,
    )


def drive_manually(study: Study, objective) -> float:
    """The quick-start loop from ``docs/study.md``: one worker, inline training.

    Tracks the simulated clock exactly like ``SimulatedCluster`` at
    ``num_workers=1``: each job completes at the running sum of job costs.
    """
    store = CheckpointStore()
    clock = 0.0
    while not study.is_done():
        job = study.ask()
        if job is None:
            break
        clock += store.job_cost(job, objective)
        loss = store.run_job(job, objective)
        study.tell(job, loss, time=clock)
    study.finalize()
    return clock


def record_manual_journal(path) -> bytes:
    objective = FunctionObjective(train_fn, toy_space(), SCENARIO["max_resource"])
    study = Study(make_scheduler(), journal=path, spec=make_spec())
    drive_manually(study, objective)
    study.close()
    return Path(path).read_bytes()


def test_manual_journal_matches_golden(tmp_path):
    recorded = record_manual_journal(tmp_path / "manual.journal.jsonl")
    assert recorded == GOLDEN_JOURNAL.read_bytes()


def test_tune_reproduces_manual_ask_tell_journal(tmp_path):
    """Acceptance: a manual ask/tell loop == tune()'s exact seeded trace."""
    path = tmp_path / "tune.journal.jsonl"
    result = tune(
        train_fn,
        toy_space(),
        max_resource=SCENARIO["max_resource"],
        min_resource=SCENARIO["min_resource"],
        eta=SCENARIO["eta"],
        scheduler="asha",
        scheduler_kwargs=dict(SCHEDULER_KWARGS),
        num_workers=1,
        time_limit=10_000.0,
        seed=SCENARIO["seed"],
        journal=path,
    )
    assert result.study is not None and result.study.journal is not None
    assert path.read_bytes() == GOLDEN_JOURNAL.read_bytes()


def test_golden_journal_is_nontrivial():
    records, _, terminated = read_journal(GOLDEN_JOURNAL)
    assert terminated
    kinds = [r["kind"] for r in records]
    assert kinds[0] == "journal_header"
    assert kinds.count("ask") == kinds.count("tell") >= 12
    assert records[0]["spec"]["scheduler"] == "asha"


def test_registry_covers_the_old_ladder():
    """Satellite: the SCHEDULERS registry replaces tune's if/elif ladder."""
    assert set(SCHEDULERS) >= {
        "asha",
        "sha",
        "hyperband",
        "async_hyperband",
        "bohb",
        "pbt",
        "random",
        "gp",
    }
    space = toy_space()
    for name in SCHEDULERS:
        sched = build_scheduler(
            name,
            space,
            np.random.default_rng(0),
            min_resource=1.0,
            max_resource=9.0,
            eta=3,
            kwargs={},
        )
        assert sched.space is space or sched.space is not None


def test_unknown_scheduler_name_raises():
    with pytest.raises(KeyError, match="unknown scheduler"):
        build_scheduler(
            "nope", toy_space(), np.random.default_rng(0),
            min_resource=1.0, max_resource=9.0, eta=3, kwargs={},
        )


def test_pause_gates_ask(tmp_path):
    objective = FunctionObjective(train_fn, toy_space(), 9.0)
    study = Study(make_scheduler())
    study.pause()
    assert study.paused
    assert study.ask() is None
    study.unpause()
    job = study.ask()
    assert job is not None
    state, loss = objective.train(None, job.config, 0.0, job.resource)
    study.tell(job, loss)
    assert study.num_trials == 1


def test_contract_checker_wrapped_study_is_transparent(tmp_path):
    """Wrapping the scheduler in ContractChecker must not change the journal."""
    objective = FunctionObjective(train_fn, toy_space(), SCENARIO["max_resource"])
    path = tmp_path / "checked.journal.jsonl"
    study = Study(ContractChecker(make_scheduler()), journal=path, spec=make_spec())
    drive_manually(study, objective)
    study.close()
    assert path.read_bytes() == GOLDEN_JOURNAL.read_bytes()


def test_journal_instance_can_be_passed_directly(tmp_path):
    path = tmp_path / "inst.journal.jsonl"
    journal = Journal(path, spec=make_spec())
    objective = FunctionObjective(train_fn, toy_space(), SCENARIO["max_resource"])
    study = Study(make_scheduler(), journal=journal)
    drive_manually(study, objective)
    study.close()
    assert path.read_bytes() == GOLDEN_JOURNAL.read_bytes()


def test_bare_resume_rebuilds_scheduler_from_header_spec(tmp_path):
    """``Study.resume(path)`` with no scheduler uses the journal's recipe."""
    path = tmp_path / "run.journal.jsonl"
    reference = record_manual_journal(path)
    lines = reference.splitlines(keepends=True)
    cut = len(lines) // 2
    path.write_bytes(b"".join(lines[:cut]))
    study = Study.resume(path)  # no scheduler argument: spec path
    assert study.replaying
    objective = FunctionObjective(train_fn, toy_space(), SCENARIO["max_resource"])
    store = CheckpointStore()
    clock = 0.0
    while not study.is_done():
        job = study.ask()
        if job is None:
            break
        clock += store.job_cost(job, objective)
        loss = study.cached_loss(job)
        if loss is not None:
            store.replay_job(job)
        else:
            loss = store.run_job(job, objective)
        study.tell(job, loss, time=clock)
    study.finalize()
    study.close()
    assert path.read_bytes() == reference


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    content = record_manual_journal(GOLDEN_JOURNAL)
    newline = b"\n"
    print(f"recorded {GOLDEN_JOURNAL} ({content.count(newline)} records)")
