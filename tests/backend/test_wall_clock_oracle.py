"""Ordering oracle: real threads held to the simulator's completion order.

DESIGN.md §2 rests the reproduction on one claim: scheduler behaviour
depends only on the order and timing of completions, which the simulator
reproduces exactly.  Following Watanabe et al. (arXiv:2403.01888), this
oracle makes real asynchronous workers return in the order their costs
imply and then requires :class:`ThreadPoolBackend`'s journal to equal
``SimulatedCluster(straggler_std=0)``'s record for record — everything but
the tells' wall-clock ``time``.

A worker's ``train`` returns only once

* the master has finished its fill: an ask returned ``None``,
  ``is_done()`` was true, or every worker is busy;
* every in-flight job has reached ``train``;
* its simulated finish, dispatch time + cost, is the smallest in flight,
  ties going to the earlier dispatch.
"""

from __future__ import annotations

import itertools
import threading

import numpy as np
import pytest

from repro.backend import SimulatedCluster, ThreadPoolBackend
from repro.core import build_scheduler
from repro.experiments.toys import toy_objective
from repro.objectives.base import Objective
from repro.study import Study, read_journal

#: Registry rows and the kwargs that bound each search; ``async_hyperband``
#: never finishes on its own, so the measurement cap ends it.
GRID = {
    "asha": ({"max_trials": 12}, None),
    "sha": ({"n": 9}, None),
    "hyperband": ({"max_loops": 1}, None),
    "async_hyperband": ({}, 30),
}


class Reordering(Objective):
    """The toy curve with a config-dependent cost, so completions reorder."""

    def __init__(self):
        self.inner = toy_objective(max_resource=9.0, constant=False)
        self.space = self.inner.space
        self.max_resource = self.inner.max_resource

    def initial_state(self, config):
        return self.inner.initial_state(config)

    def train(self, state, config, from_resource, to_resource):
        return self.inner.train(state, config, from_resource, to_resource)

    def cost(self, config, from_resource, to_resource):
        return (to_resource - from_resource) * (0.25 + 3.0 * config["quality"])


class Gate:
    """Releases one ``train`` call at a time, in simulated-finish order."""

    def __init__(self, workers: int, cap: int | None):
        self.cond = threading.Condition()
        self.workers = workers
        self.cap = cap
        self.tells = 0
        #: Simulated clock: the finish of the last released attempt.
        self.now = 0.0
        self.seq = itertools.count()
        #: id(config) -> [dispatch time, dispatch seq, simulated finish or None].
        self.flight: dict[int, list] = {}
        self.filled = False
        #: Set at the measurement cap: the run is over, let every thread go.
        self.open = False

    # ------------------------------------------------------ master thread

    def asked(self, job) -> None:
        with self.cond:
            if job is not None:
                self.flight[id(job.config)] = [self.now, next(self.seq), None]
            if job is None or len(self.flight) == self.workers:
                self.filled = True
            self.cond.notify_all()

    def done(self) -> None:
        with self.cond:
            self.filled = True
            self.cond.notify_all()

    def told(self) -> None:
        with self.cond:
            self.tells += 1
            if self.cap is not None and self.tells >= self.cap:
                self.open = True
            self.cond.notify_all()

    # ------------------------------------------------------ worker threads

    def hold(self, key: int, cost: float) -> None:
        with self.cond:
            entry = self.flight[key]
            entry[2] = entry[0] + cost
            self.cond.notify_all()

            def mine() -> bool:
                if self.open:
                    return True
                if not self.filled or any(e[2] is None for e in self.flight.values()):
                    return False
                return min(self.flight.values(), key=lambda e: (e[2], e[1])) is entry

            if not self.cond.wait_for(mine, timeout=10.0):
                raise TimeoutError("the gate never released this attempt")
            if not self.open:
                del self.flight[key]
                self.now = entry[2]
                self.filled = False


class GatedStudy(Study):
    def __init__(self, scheduler, gate: Gate, **kwargs):
        super().__init__(scheduler, **kwargs)
        self.gate = gate

    def ask(self):
        job = super().ask()
        self.gate.asked(job)
        return job

    def is_done(self):
        done = super().is_done()
        if done:
            self.gate.done()
        return done

    def tell(self, job, loss, **kwargs):
        super().tell(job, loss, **kwargs)
        self.gate.told()


class Gated(Reordering):
    def __init__(self, gate: Gate):
        super().__init__()
        self.gate = gate

    def train(self, state, config, from_resource, to_resource):
        self.gate.hold(id(config), self.cost(config, from_resource, to_resource))
        return super().train(state, config, from_resource, to_resource)


def _scheduler(name: str, seed: int, objective: Objective):
    kwargs, _ = GRID[name]
    return build_scheduler(
        name,
        objective.space,
        np.random.default_rng(seed),
        min_resource=1.0,
        max_resource=9.0,
        eta=3,
        kwargs=dict(kwargs),
    )


def _records(path) -> list[dict]:
    records, _, _ = read_journal(path)
    return [
        {k: v for k, v in r.items() if not (r["kind"] == "tell" and k == "time")}
        for r in records
    ]


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("workers", [1, 3, 4])
@pytest.mark.parametrize("name", sorted(GRID))
def test_threads_write_the_simulators_journal(tmp_path, name, workers, seed):
    cap = GRID[name][1]
    objective = Reordering()
    sim_path = tmp_path / "sim.jsonl"
    study = Study(_scheduler(name, seed, objective), journal=sim_path)
    sim = SimulatedCluster(workers, straggler_std=0.0).run(
        study, objective, time_limit=1e9, max_measurements=cap
    )
    study.close()

    gate = Gate(workers, cap)
    threads_path = tmp_path / "threads.jsonl"
    gated = Gated(gate)
    study = GatedStudy(_scheduler(name, seed, gated), gate, journal=threads_path)
    threads = ThreadPoolBackend(workers).run(
        study, gated, time_limit=60.0, max_measurements=cap
    )
    study.close()

    assert [(m.trial_id, m.resource, m.loss) for m in threads.measurements] == [
        (m.trial_id, m.resource, m.loss) for m in sim.measurements
    ]
    records = _records(threads_path)
    assert records == _records(sim_path)
    if workers > 1:  # the costs really reorder completions
        tells = [r["job_id"] for r in records if r["kind"] == "tell"]
        assert tells != sorted(tells)
    if cap is not None:
        assert len(threads.measurements) == cap
