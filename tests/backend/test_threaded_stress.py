"""Stress: the thread pool neither loses a job nor reports one twice.

Hypothesis draws a scheduler, a pool size, crash and hang rates, jittered
``train`` sleeps, and whether a wall-clock deadline is armed.  Every run is
audited by :class:`ContractChecker` (a job resolved twice, or reported after
its deadline already failed it, raises) and journalled, and must account
for every dispatch exactly once.
"""

from __future__ import annotations

import sys
import time as _time

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backend import FailureInjectingObjective, RetryPolicy, ThreadPoolBackend
from repro.core import build_scheduler
from repro.core.contract import ContractChecker
from repro.experiments.toys import toy_objective
from repro.study import Study, read_journal

#: Registry rows and the kwargs that make each finish on its own.
SCHEDULERS = {
    "asha": {"max_trials": 12},
    "sha": {"n": 9},
    "hyperband": {"max_loops": 1},
    "random": {"max_trials": 12},
}
TIME_LIMIT = 20.0


class JitteredObjective(FailureInjectingObjective):
    """Injected crashes and hangs, plus a config-dependent 0-3 ms sleep per call."""

    def train(self, state, config, from_resource, to_resource):
        _time.sleep(0.003 * (hash((config["quality"], to_resource)) % 1000) / 1000)
        return super().train(state, config, from_resource, to_resource)


@settings(max_examples=12, deadline=None)
@given(
    name=st.sampled_from(sorted(SCHEDULERS)),
    seed=st.integers(0, 1000),
    workers=st.integers(1, 4),
    crash=st.sampled_from([0.0, 0.1, 0.3]),
    hang=st.sampled_from([0.0, 0.1, 0.3]),
    deadline=st.booleans(),
)
def test_every_dispatch_is_accounted_once(
    tmp_path_factory, name, seed, workers, crash, hang, deadline
):
    objective = toy_objective(max_resource=9.0, constant=False)
    checked = ContractChecker(
        build_scheduler(
            name,
            objective.space,
            np.random.default_rng(seed),
            min_resource=1.0,
            max_resource=9.0,
            eta=3,
            kwargs=dict(SCHEDULERS[name]),
        )
    )
    path = tmp_path_factory.mktemp("stress") / "journal.jsonl"
    flaky = JitteredObjective(
        objective,
        seed=seed,
        crash_probability=crash,
        hang_probability=hang,
        hang_duration=0.03,
        real_sleep=True,
    )
    # Switch threads far more often than the default 5 ms, so hand-overs
    # between the master and the workers interleave at many more points.
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    study = Study(checked, journal=path)
    try:
        result = ThreadPoolBackend(workers).run(
            study,
            flaky,
            time_limit=TIME_LIMIT,
            retry_policy=RetryPolicy(timeout=0.01) if deadline else None,
        )
    finally:
        sys.setswitchinterval(interval)
        study.close()
    assert result.elapsed < TIME_LIMIT
    assert checked.outstanding_jobs == 0
    assert result.jobs_dispatched == len(result.measurements) + len(result.failure_log)
    records, _, _ = read_journal(path)
    assert sum(1 for r in records if r["kind"] == "tell") == len(result.measurements)
