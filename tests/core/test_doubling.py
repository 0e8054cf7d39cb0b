"""Tests for the doubling-trick SHA (Section 3.3's infinite-horizon foil)."""

from __future__ import annotations

import json
from collections import Counter

import numpy as np
import pytest

from repro.backend import SimulatedCluster
from repro.backend.checkpoint import CheckpointStore
from repro.core import ASHA, DoublingSHA
from repro.experiments.toys import toy_objective
from repro.study import Study
from repro.telemetry import EventKind, InMemorySink, TelemetryHub


def test_validation(one_d_space, rng):
    with pytest.raises(ValueError):
        DoublingSHA(one_d_space, rng, min_resource=2.0, initial_max_resource=1.0)
    with pytest.raises(ValueError):
        DoublingSHA(
            one_d_space, rng, min_resource=1.0, initial_max_resource=9.0, eta=3, n=5
        )


def test_budget_grows_geometrically(one_d_space, rng):
    objective = toy_objective(max_resource=1e9, constant=False)
    sha = DoublingSHA(
        one_d_space,
        rng,
        min_resource=1.0,
        initial_max_resource=4.0,
        eta=2,
        max_brackets=3,
    )
    SimulatedCluster(2, seed=0).run(sha, objective, time_limit=1e9)
    assert sha.is_done()
    assert [r for _, _, r in sha.outputs] == [4.0, 8.0, 16.0]


def test_output_intervals_double(one_d_space, rng):
    """The interval between outputs grows geometrically (Section 3.3)."""
    objective = toy_objective(max_resource=1e9, constant=False)
    sha = DoublingSHA(
        one_d_space,
        rng,
        min_resource=1.0,
        initial_max_resource=4.0,
        eta=2,
        max_brackets=3,
    )
    result = SimulatedCluster(1, seed=0).run(sha, objective, time_limit=1e9)
    # On one worker, each bracket's duration is its budget; reconstruct the
    # output times from the completion log at each bracket's R.
    output_times = []
    for _, winner_id, big_r in sha.outputs:
        t = max(m.time for m in result.measurements if m.trial_id == winner_id)
        output_times.append(t)
    intervals = np.diff([0.0] + output_times)
    # Between-output intervals grow at least geometrically (doubling trick).
    assert intervals[1] > 2 * intervals[0]
    assert intervals[2] > 2 * intervals[1]


def test_asha_infinite_horizon_emits_continuously(one_d_space, rng):
    """Contrast: infinite-horizon ASHA reaches deep resources without
    bracket-boundary gaps — the depth of its deepest measurement grows
    through the run rather than jumping at completions."""
    objective = toy_objective(max_resource=1e9, constant=False)
    asha = ASHA(one_d_space, rng, min_resource=1.0, max_resource=None, eta=2)
    result = SimulatedCluster(1, seed=0).run(asha, objective, time_limit=3000.0)
    deepest = 0.0
    depth_updates = 0
    for m in result.measurements:
        if m.resource > deepest:
            deepest = m.resource
            depth_updates += 1
    assert deepest >= 64.0
    assert depth_updates >= 7  # one per rung level climbed


def test_winner_recorded_per_bracket(one_d_space, rng):
    objective = toy_objective(max_resource=1e9, constant=True)
    sha = DoublingSHA(
        one_d_space,
        rng,
        min_resource=1.0,
        initial_max_resource=4.0,
        eta=2,
        max_brackets=2,
    )
    SimulatedCluster(2, seed=0).run(sha, objective, time_limit=1e9)
    for bracket_index, winner_id, _ in sha.outputs:
        winner = sha.trials[winner_id]
        assert winner.measurements


def make_doubling(space, seed=0):
    return DoublingSHA(
        space,
        np.random.default_rng(seed),
        min_resource=1.0,
        initial_max_resource=4.0,
        eta=2,
        max_brackets=3,
    )


def test_emits_every_trial_rung_and_promotion(one_d_space):
    """A doubling run's event stream is SynchronousSHA's: one trial_started
    per trial, one rung_completed per closed rung, one promotion per
    promotion."""
    sink = InMemorySink()
    sha = make_doubling(one_d_space)
    objective = toy_objective(max_resource=1e9, constant=False)
    SimulatedCluster(2, seed=0).run(sha, objective, time_limit=1e9, telemetry=TelemetryHub([sink]))
    kinds = Counter(event.kind for event in sink.events)
    # Bracket k samples 4 * 2**k configurations over k + 3 rungs.
    assert kinds[EventKind.TRIAL_STARTED] == sha.num_trials == 4 + 8 + 16
    assert kinds[EventKind.RUNG_COMPLETED] == 3 + 4 + 5
    promoted_jobs = [e for e in sink.events if e.kind is EventKind.JOB_STARTED and e.rung > 0]
    promotions = (2 + 1) + (4 + 2 + 1) + (8 + 4 + 2 + 1)
    assert kinds[EventKind.PROMOTION] == len(promoted_jobs) == promotions


@pytest.mark.parametrize("steps, bracket", [(3, 0), (10, 1), (30, 2)])
def test_snapshot_round_trips(one_d_space, steps, bracket):
    """Mid-bracket in each of the first three brackets: the restoree has the
    same state and hands out the same jobs, with the outputs so far."""
    objective = toy_objective(max_resource=1e9, constant=False)

    def drive(study, store, n):
        out = []
        for _ in range(n):
            job = study.ask()
            if job is None:
                break
            loss = store.run_job(job, objective)
            study.tell(job, loss)
            out.append((job.job_id, job.trial_id, job.resource, job.rung, round(loss, 12)))
        return out

    study, store = Study(make_doubling(one_d_space)), CheckpointStore()
    drive(study, store, steps)
    assert study.scheduler.brackets_started == bracket + 1
    assert not study.scheduler.runs[0].done
    snapshot = json.loads(json.dumps(study.snapshot()))
    restored = Study.restore(snapshot, scheduler=make_doubling(one_d_space))
    assert restored.scheduler.state_dict() == study.scheduler.state_dict()
    assert restored.scheduler.outputs == study.scheduler.outputs
    restored_store = CheckpointStore()
    restored_store.seed_from_trials(restored.trials)
    tail = drive(study, store, 60)
    assert tail and drive(restored, restored_store, 60) == tail
    assert restored.scheduler.outputs == study.scheduler.outputs
