"""The asynchronous rung schedulers, decision for decision, against Algorithm 2.

A hypothesis driver draws a geometry (η, r, R or the infinite horizon, s or
a bracket count), a worker count, and a history: which outstanding job
completes, fails or is abandoned next, with what loss (ties and NaN
included), and where the scheduler is snapshotted and reloaded onto a fresh
instance.  The real scheduler and ``reference_sha.ReferenceASHA`` see the
same history, and they must hand out the same ``(trial, rung, resource,
bracket)`` at every ask, hold the same rung tables (losses and promoted
marks) after every event, and agree on ``is_done``.

Rows: ASHA in the finite and the infinite horizon, ASHA with a scripted
finite searcher (the asynchronous-BOHB shape), and both asynchronous
Hyperbands, each of which may also draw a finite searcher.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_sha as reference
from repro.core import ASHA, AsyncHyperband, ParallelAsyncHyperband
from repro.experiments.toys import toy_space
from repro.searchers.base import ORIGIN_GRID, Searcher

ROWS = ("asha", "asha_infinite", "asha_scripted", "async_hyperband", "parallel_async_hyperband")
#: Rows that pick between several ladders.
HYPERBANDS = {"async_hyperband": "loop", "parallel_async_hyperband": "least_deficit"}
#: Losses drawn from a small pool, so ties are common; NaN is a diverged trial.
LOSSES = st.one_of(st.sampled_from([0.0, 0.25, 0.25, 0.5, 1.0, math.nan]), st.floats(0.0, 1.0))
EVENTS = st.one_of(
    st.tuples(st.just("complete"), st.integers(0, 10**6), LOSSES),
    st.tuples(st.sampled_from(["fail", "abandon"]), st.integers(0, 10**6), st.just(0.0)),
    st.tuples(st.just("snapshot"), st.just(0), st.just(0.0)),
)


class ScriptedSearcher(Searcher):
    """Proposes ``{"quality": i / 1000}`` for ``i = 0, 1, ...`` up to ``budget``."""

    def __init__(self, budget: int):
        super().__init__()
        self.budget = budget
        self.cursor = 0

    def is_done(self) -> bool:
        return self.cursor >= self.budget

    def _propose(self, rng):
        self.cursor += 1
        return {"quality": (self.cursor - 1) / 1000}, ORIGIN_GRID

    def _searcher_state(self) -> dict:
        return {"cursor": self.cursor}

    def _load_searcher_state(self, extra: dict) -> None:
        self.cursor = extra["cursor"]


@dataclass(frozen=True)
class Scenario:
    row: str
    eta: int
    r: float
    big_r: float | None
    s: int
    brackets: int | None
    workers: int
    max_trials: int | None
    proposals: int | None
    from_checkpoint: bool
    events: list

    def build(self):
        """A fresh real scheduler for this scenario."""
        space = toy_space()
        searcher = None if self.proposals is None else ScriptedSearcher(self.proposals)
        common = dict(
            min_resource=self.r,
            max_resource=self.big_r,
            eta=self.eta,
            from_checkpoint=self.from_checkpoint,
            searcher=searcher,
        )
        rng = np.random.default_rng(0)
        if self.row in HYPERBANDS:
            cls = AsyncHyperband if self.row == "async_hyperband" else ParallelAsyncHyperband
            return cls(space, rng, brackets=self.brackets, **common)
        return ASHA(space, rng, early_stopping_rate=self.s, max_trials=self.max_trials, **common)

    def reference(self) -> reference.ReferenceASHA:
        """Algorithm 2 with the system's deviations, for this scenario."""
        common = dict(proposals=self.proposals, from_checkpoint=self.from_checkpoint)
        if self.row in HYPERBANDS:
            return reference.async_hyperband(
                self.r, self.big_r, self.eta, self.brackets, HYPERBANDS[self.row], **common
            )
        ladder = reference.ReferenceLadder(self.r, self.big_r, self.eta, self.s)
        return reference.ReferenceASHA([ladder], max_trials=self.max_trials, **common)


@st.composite
def scenarios(draw, row: str) -> Scenario:
    eta = draw(st.sampled_from([2, 3, 4]))
    r = draw(st.sampled_from([0.5, 1.0, 2.0]))
    levels = draw(st.integers(1, 3))
    big_r = None if row == "asha_infinite" else r * eta**levels
    hyperband = row in HYPERBANDS
    return Scenario(
        row=row,
        eta=eta,
        r=r,
        big_r=big_r,
        s=0 if hyperband else draw(st.integers(0, levels)),
        brackets=draw(st.integers(1, levels + 1)) if hyperband else None,
        workers=draw(st.integers(1, 6)),
        max_trials=None if hyperband else draw(st.none() | st.integers(1, 40)),
        proposals=(
            draw(st.integers(1, 40))
            if row == "asha_scripted"
            else draw(st.none() | st.integers(1, 40)) if hyperband else None
        ),
        from_checkpoint=draw(st.booleans()),
        events=draw(st.lists(EVENTS, min_size=1, max_size=120)),
    )


def job_key(job) -> reference.JobKey | None:
    return None if job is None else (job.trial_id, job.rung, job.resource, job.bracket)


def tables(scheduler) -> list:
    return [
        reference.rung_table(
            [rung.losses for rung in bracket.rungs], [rung.promoted for rung in bracket.rungs]
        )
        for bracket in scheduler.brackets
    ]


def reload(scheduler, scenario: Scenario):
    """The scheduler's state, through JSON, on a freshly built one."""
    state = json.loads(json.dumps(scheduler.state_dict()))
    fresh = scenario.build()
    fresh.load_state(state)
    assert json.dumps(fresh.state_dict(), sort_keys=True) == json.dumps(state, sort_keys=True)
    return fresh


def drive(scenario: Scenario) -> None:
    real, oracle = scenario.build(), scenario.reference()
    outstanding: list = []
    for kind, pick, loss in scenario.events:
        while len(outstanding) < scenario.workers:
            job = real.next_job()
            assert job_key(job) == oracle.next_job()
            if job is None:
                break
            outstanding.append(job)
        assert real.is_done() == oracle.is_done()
        if kind == "snapshot":
            real = reload(real, scenario)
            continue
        if not outstanding:
            break
        job = outstanding.pop(pick % len(outstanding))
        if kind == "complete":
            real.report(job, loss)
            oracle.report(job_key(job), loss)
        elif kind == "fail":
            real.on_job_failed(job)
            oracle.fail(job_key(job))
        else:
            real.on_trial_abandoned(job)
            oracle.abandon(job_key(job))
        assert tables(real) == oracle.tables()


@pytest.mark.parametrize("row", ROWS)
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_scheduler_follows_algorithm_2(row, data):
    drive(data.draw(scenarios(row)))
