"""Snapshot round-trips: a restored study continues exactly like the original.

Each case drives a scheduler partway through a seeded run, snapshots,
pushes the snapshot through a JSON round-trip (the serialisation a process
boundary or a file would impose), restores it onto a *freshly constructed*
scheduler, and checks that original and restoree produce the identical
job/loss sequence from there on.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.backend.checkpoint import CheckpointStore
from repro.core import SCHEDULERS, build_scheduler
from repro.experiments.toys import toy_objective
from repro.searchers import build_searcher
from repro.study import Study

#: The registry rows whose promotion rule serializes its state, plus one
#: pair with no registry name.
CASES = {
    "asha": ("asha", {"max_trials": 14}, None),
    "sha": ("sha", {"n": 9}, None),
    "hyperband": ("hyperband", {"max_loops": 1}, None),
    "bohb": ("bohb", {"n": 9}, None),
    "asha_kde": ("asha", {"max_trials": 14}, "kde"),
}
#: The rows that refuse loudly, and the class the refusal names (``gp`` is
#: stopped by its searcher before its promotion rule is asked).
UNSUPPORTED = {
    "async_hyperband": "AsyncHyperband",
    "random": "RandomSearch",
    "pbt": "PBT",
    "gp": "GPEISearcher",
}


def make_study(case: str) -> Study:
    name, kwargs, searcher_name = CASES.get(case, (case, {}, None))
    objective = toy_objective()
    searcher = build_searcher(searcher_name, {}) if searcher_name else None
    scheduler = build_scheduler(
        name,
        objective.space,
        np.random.default_rng(3),
        min_resource=1.0,
        max_resource=9.0,
        eta=3,
        kwargs=dict(kwargs),
        searcher=searcher,
    )
    return Study(scheduler)


def step(study: Study, store: CheckpointStore, objective) -> tuple | None:
    job = study.ask()
    if job is None:
        return None
    loss = store.run_job(job, objective)
    study.tell(job, loss)
    return (job.job_id, job.trial_id, job.resource, job.rung, job.bracket, round(loss, 12))


@pytest.mark.parametrize("case", sorted(CASES))
def test_snapshot_restore_continues_identically(case):
    objective = toy_objective()
    study = make_study(case)
    store = CheckpointStore()
    for _ in range(7):
        if step(study, store, objective) is None:
            break

    snapshot = json.loads(json.dumps(study.snapshot()))  # must survive JSON
    restored = Study.restore(snapshot, scheduler=make_study(case).scheduler)
    # The restoree's backend is fresh: placeholder checkpoints stand in for
    # the training states the original accumulated.
    restored_store = CheckpointStore()
    restored_store.seed_from_trials(restored.trials)

    original_tail, restored_tail = [], []
    for driven, tail, st in ((study, original_tail, store),
                             (restored, restored_tail, restored_store)):
        for _ in range(30):
            result = step(driven, st, objective)
            if result is None:
                break
            tail.append(result)
    assert original_tail, f"{case}: snapshot taken after the run already ended"
    assert restored_tail == original_tail


@pytest.mark.parametrize("steps, s", [(7, 0), (16, 1), (20, 2)])
def test_hyperband_snapshots_mid_bracket_in_every_s(steps, s):
    """One loop over s = 0, 1, 2 (13, 6 and 3 jobs): a snapshot inside each
    bracket restores to the same state and hands out the same jobs."""
    objective = toy_objective()
    study, store = make_study("hyperband"), CheckpointStore()
    for _ in range(steps):
        step(study, store, objective)
    (run,) = study.scheduler.runs
    assert run.bracket.s == s and len(run.bracket.rung(0)) and not run.done

    snapshot = json.loads(json.dumps(study.snapshot()))
    restored = Study.restore(snapshot, scheduler=make_study("hyperband").scheduler)
    assert restored.scheduler.state_dict() == study.scheduler.state_dict()
    restored_store = CheckpointStore()
    restored_store.seed_from_trials(restored.trials)
    tails = [
        [step(driven, st, objective) for _ in range(22 - steps)]
        for driven, st in ((study, store), (restored, restored_store))
    ]
    assert None not in tails[0] and tails[1] == tails[0]
    assert study.scheduler.is_done() and restored.scheduler.is_done()


def test_hyperband_snapshot_from_before_plans_is_refused():
    """Hyperband state whose brackets were a nested SHA's is not misread."""
    study = make_study("hyperband")
    legacy = study.snapshot()
    legacy["scheduler"]["extra"] = {
        "completed_brackets": 0, "current_s": 0, "loops": 0, "current": None,
    }
    with pytest.raises(ValueError, match="has no bracket runs"):
        Study.restore(legacy, scheduler=make_study("hyperband").scheduler)


@pytest.mark.parametrize("case", sorted(CASES))
def test_snapshot_preserves_trial_table_and_best(case):
    objective = toy_objective()
    study = make_study(case)
    store = CheckpointStore()
    for _ in range(7):
        if step(study, store, objective) is None:
            break
    snapshot = json.loads(json.dumps(study.snapshot()))
    restored = Study.restore(snapshot, scheduler=make_study(case).scheduler)
    assert restored.num_trials == study.num_trials
    assert set(restored.trials) == set(study.trials)
    best, rbest = study.best_trial(), restored.best_trial()
    assert (best is None) == (rbest is None)
    if best is not None:
        assert rbest.trial_id == best.trial_id
        assert rbest.last_loss == best.last_loss
    for trial_id, trial in study.trials.items():
        rtrial = restored.trials[trial_id]
        assert rtrial.config == trial.config
        assert [
            (m.resource, m.loss) for m in rtrial.measurements
        ] == [(m.resource, m.loss) for m in trial.measurements]


def test_every_registry_row_is_accounted_for():
    assert {name for name, _, _ in CASES.values()} | set(UNSUPPORTED) == set(SCHEDULERS)


@pytest.mark.parametrize("name", sorted(UNSUPPORTED))
def test_unsupported_rows_refuse_to_snapshot(name):
    """Better no snapshot than one that resumes a different search."""
    objective = toy_objective()
    study = make_study(name)
    store = CheckpointStore()
    for _ in range(3):
        step(study, store, objective)
    with pytest.raises(
        NotImplementedError,
        match=f"^{UNSUPPORTED[name]} does not support state serialization$",
    ):
        study.snapshot()


def test_bohb_snapshot_is_typed_by_its_promotion_rule():
    snapshot = make_study("bohb").snapshot()
    assert snapshot["scheduler"]["type"] == "SynchronousSHA"
    assert snapshot["scheduler"]["searcher"]["type"] == "KDESearcher"


def test_snapshot_preserves_pause_flag():
    study = make_study("asha")
    study.pause()
    snapshot = json.loads(json.dumps(study.snapshot()))
    restored = Study.restore(snapshot, scheduler=make_study("asha").scheduler)
    assert restored.paused
    assert restored.ask() is None


def test_editing_a_snapshot_never_edits_a_live_trial(tmp_path):
    """``config_state`` hands out the trial's own dict; a snapshot must copy it."""
    objective = toy_objective()
    runs = []
    for name in ("edited", "untouched"):
        study = Study(make_study("asha").scheduler, journal=tmp_path / f"{name}.jsonl")
        store = CheckpointStore()
        for _ in range(7):
            step(study, store, objective)
        runs.append((study, store))

    study = runs[0][0]
    before = {tid: dict(trial.config) for tid, trial in study.trials.items()}
    for row in study.snapshot()["scheduler"]["trials"].values():
        row["config"]["quality"] = "clobbered"
        row["config"]["injected"] = 1
    assert {tid: trial.config for tid, trial in study.trials.items()} == before

    for study, store in runs:  # later asks re-state promoted trials' configs
        for _ in range(7):
            step(study, store, objective)
        study.close()
    edited = (tmp_path / "edited.jsonl").read_bytes()
    assert edited == (tmp_path / "untouched.jsonl").read_bytes()
    assert edited.count(b'"kind":"ask"') == 14 and b"clobbered" not in edited
