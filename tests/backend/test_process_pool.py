"""Tests for the GIL-free process-pool backend.

The contract: :class:`ProcessPoolBackend` may change *where* training
computes — never *what* the run produces.  Records, telemetry metric
reports, JSONL event streams, and fault-tolerance behaviour must all be
byte-identical to :class:`SimulatedCluster` under the same seed, and
anything the pool cannot execute safely (stateful objectives, nested
workers, a fork-less platform) must silently run inline.
"""

from __future__ import annotations

import io
import multiprocessing
import pickle

import numpy as np
import pytest

from repro.backend import (
    FailureInjectingObjective,
    ProcessPoolBackend,
    RetryPolicy,
    SimulatedCluster,
)
from repro.backend.events import EventQueue
from repro.backend.simulation import SimRun, drive_runs
from repro.core import ASHA, PBT
from repro.experiments.runner import run_trials
from repro.experiments.toys import toy_objective, toy_space
from repro.objectives import mlp_real
from repro.study import StudyMultiplexer
from repro.telemetry import JSONLSink, TelemetryHub
from repro.telemetry.runtime import install_runtime_registry, uninstall_runtime_registry
from repro.tune import FunctionObjective, tune


def _asha(seed: int = 3, max_trials: int = 30):
    return ASHA(
        toy_space(),
        np.random.default_rng(seed),
        min_resource=1,
        max_resource=9,
        eta=3,
        max_trials=max_trials,
    )


def _run(cluster, scheduler=None, objective=None, *, time_limit=60.0, **run_kwargs):
    buffer = io.StringIO()
    hub = TelemetryHub.with_metrics(JSONLSink(buffer))
    result = cluster.run(
        scheduler if scheduler is not None else _asha(),
        objective if objective is not None else toy_objective(max_resource=9.0),
        time_limit=time_limit,
        telemetry=hub,
        **run_kwargs,
    )
    hub.close()
    return result, buffer.getvalue()


CLUSTER_KWARGS = dict(straggler_std=0.3, drop_probability=0.02, seed=7)


class TestByteParity:
    def test_records_and_events_identical_to_inline(self):
        seq, seq_events = _run(SimulatedCluster(4, **CLUSTER_KWARGS))
        par, par_events = _run(ProcessPoolBackend(4, n_procs=4, **CLUSTER_KWARGS))
        assert par_events == seq_events
        assert pickle.dumps(par) == pickle.dumps(seq)

    def test_parity_under_churn(self):
        kwargs = dict(straggler_std=0.3, churn_rate=0.15, churn_downtime=5.0, seed=23)
        seq, seq_events = _run(SimulatedCluster(4, **kwargs))
        par, par_events = _run(ProcessPoolBackend(4, n_procs=4, **kwargs))
        assert par_events == seq_events
        assert pickle.dumps(par) == pickle.dumps(seq)

    def test_parity_with_retry_policy_and_timeouts(self):
        # Timeout kills discard in-flight speculative work; retries
        # re-dispatch — the pool must neither lose nor duplicate training.
        policy = RetryPolicy(max_attempts=3, backoff=1.0, timeout_factor=4.0)
        kwargs = dict(straggler_std=0.5, drop_probability=0.05, seed=11)
        seq, seq_events = _run(SimulatedCluster(4, **kwargs), retry_policy=policy)
        par, par_events = _run(
            ProcessPoolBackend(4, n_procs=4, **kwargs), retry_policy=policy
        )
        assert par_events == seq_events
        assert pickle.dumps(par) == pickle.dumps(seq)

    def test_parity_with_pbt_inheritance(self):
        # PBT exploit jobs inherit dispatch-time donor snapshots; the pool
        # resolves them at submit, the inline path at collect — the golden
        # check is that checkpoint_restored events and losses still match.
        def pbt(seed=5):
            return PBT(
                toy_space(),
                np.random.default_rng(seed),
                max_resource=9.0,
                interval=3.0,
                population_size=6,
            )

        seq, seq_events = _run(SimulatedCluster(4, seed=9), scheduler=pbt())
        par, par_events = _run(ProcessPoolBackend(4, n_procs=4, seed=9), scheduler=pbt())
        assert par_events == seq_events
        assert pickle.dumps(par) == pickle.dumps(seq)

    def test_parity_on_real_mlp_objective(self):
        # The CPU-bound numpy workload the backend exists for: same losses,
        # same events, bit-for-bit, with states crossing process boundaries.
        def run(cls, **kw):
            objective = mlp_real.make_objective(seed=0, max_epochs=4, num_train=96, num_val=48)
            scheduler = ASHA(
                objective.space,
                np.random.default_rng(2),
                min_resource=1.0,
                max_resource=4.0,
                eta=2,
                max_trials=8,
            )
            return _run(cls(2, seed=5, **kw), scheduler, objective, time_limit=200.0)

        seq, seq_events = run(SimulatedCluster)
        par, par_events = run(ProcessPoolBackend, n_procs=2)
        assert par_events == seq_events
        assert pickle.dumps(par) == pickle.dumps(seq)


def _pool_of_a_run(backend, objective=None):
    """The training pool a run on ``backend`` holds (``None``: it trains in-process)."""
    run = SimRun(
        backend,
        _asha(),
        objective if objective is not None else toy_objective(),
        queue=EventQueue(),
        time_limit=1.0,
    )
    run.close()
    return run.pool


class TestInlineFallbacks:
    def test_single_proc_runs_inline(self):
        assert _pool_of_a_run(ProcessPoolBackend(4, n_procs=1)) is None

    def test_process_unsafe_objective_runs_inline(self):
        # The failure injector's RNG and counters live in the master;
        # forked copies would diverge, so it must never enter the pool.
        objective = FailureInjectingObjective(toy_objective(), crash_probability=0.1)
        assert objective.process_safe is False
        assert _pool_of_a_run(ProcessPoolBackend(4, n_procs=4), objective) is None

    def test_no_fork_runs_inline(self, monkeypatch):
        monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
        assert _pool_of_a_run(ProcessPoolBackend(4, n_procs=4)) is None

    def test_inside_experiment_worker_runs_inline(self, monkeypatch):
        import repro.forkpool as forkpool

        monkeypatch.setattr(forkpool, "_IN_WORKER", True)
        assert _pool_of_a_run(ProcessPoolBackend(4, n_procs=4)) is None

    def test_pool_path_chosen_when_safe(self):
        assert _pool_of_a_run(ProcessPoolBackend(4, n_procs=2)) is not None
        assert _pool_of_a_run(SimulatedCluster(4)) is None

    def test_fault_injection_run_matches_simulated_cluster(self):
        # End to end: a process-pool run over an injected-failure objective
        # degrades to inline execution and reproduces the inline stream.
        def run(cls):
            objective = FailureInjectingObjective(
                toy_objective(max_resource=9.0), crash_probability=0.15, seed=21
            )
            return _run(
                cls(4, straggler_std=0.3, seed=7),
                _asha(max_trials=40),
                objective,
                retry_policy=RetryPolicy(max_attempts=3, backoff=1.0),
            )

        seq, seq_events = run(SimulatedCluster)
        par, par_events = run(ProcessPoolBackend)
        assert par_events == seq_events
        assert pickle.dumps(par) == pickle.dumps(seq)


def _offset_objective(offset: float) -> FunctionObjective:
    def train(config, state, from_resource, to_resource):
        return state, offset + config["quality"] + 1.0 / (1.0 + to_resource)

    return FunctionObjective(train, toy_space(), 9.0)


class TestCoHostedPools:
    """Pools alive at once each train their own study's objective."""

    def test_two_studies_in_one_multiplexer_match_their_solo_runs(self):
        def solo(i):
            return SimulatedCluster(4, seed=i).run(
                _asha(seed=i), _offset_objective(100.0 * i), time_limit=60.0
            )

        mux = StudyMultiplexer()
        for i in range(2):
            mux.add(
                _asha(seed=i),
                _offset_objective(100.0 * i),
                cluster=ProcessPoolBackend(4, n_procs=2, seed=i),
                time_limit=60.0,
            )
        for i, hosted in enumerate(mux.run()):
            assert hosted.measurements[0].loss < 100.0 * i + 2.0
            assert pickle.dumps(hosted) == pickle.dumps(solo(i))

    def test_closing_one_run_does_not_strand_another_on_the_same_objective(self):
        objective = toy_objective(max_resource=9.0)
        first, second = (
            SimRun(
                ProcessPoolBackend(4, n_procs=2, seed=5),
                _asha(),
                objective,
                queue=EventQueue(),
                time_limit=60.0,
            )
            for _ in range(2)
        )
        first.close()
        try:
            drive_runs(second.queue, [second])
        finally:
            second.close()
        expected = SimulatedCluster(4, seed=5).run(_asha(), objective, time_limit=60.0)
        assert pickle.dumps(second.finish()) == pickle.dumps(expected)


class TestRuntimeProbes:
    def test_retries_are_labelled_processes(self):
        """A pool's run counts its re-dispatches with the pool's own series."""
        registry = install_runtime_registry()
        try:
            result, _ = _run(
                ProcessPoolBackend(4, n_procs=2, drop_probability=0.2, seed=3),
                retry_policy=RetryPolicy(max_attempts=3, backoff=1.0),
            )
            counters = registry.snapshot()["counters"]
        finally:
            uninstall_runtime_registry()
        assert counters['backend_dispatch_total{backend="processes"}'] > 0
        assert result.jobs_retried > 0
        assert counters['backend_retries_total{backend="processes"}'] == result.jobs_retried
        assert 'backend_retries_total{backend="simulation"}' not in counters


class TestConstruction:
    def test_rejects_bad_n_procs(self):
        with pytest.raises(ValueError):
            ProcessPoolBackend(4, n_procs=0)

    def test_default_n_procs_capped_by_cores_and_workers(self):
        backend = ProcessPoolBackend(4)
        assert backend.n_procs is None  # resolved lazily per run


class TestWiring:
    def test_tune_accepts_processes_backend(self):
        def train(config, state, from_resource, to_resource):
            return state, config["quality"] + 1.0 / (1.0 + to_resource)

        kwargs = dict(
            max_resource=8.0,
            min_resource=1.0,
            eta=2,
            num_workers=4,
            seed=5,
            scheduler_kwargs={"max_trials": 12},
        )
        seq = tune(train, toy_space(), backend="simulated", **kwargs)
        par = tune(train, toy_space(), backend="processes", **kwargs)
        assert par.best_loss == seq.best_loss
        assert par.best_config == seq.best_config
        assert len(par.backend_result.measurements) == len(seq.backend_result.measurements)

    def test_tune_rejects_unknown_backend(self):
        with pytest.raises(KeyError, match="processes"):
            tune(
                lambda config, state, a, b: (state, 1.0),
                toy_space(),
                max_resource=4.0,
                backend="nope",
            )

    def test_run_trials_processes_backend_matches_simulated(self):
        def make_scheduler(objective, rng):
            return ASHA(objective.space, rng, min_resource=1.0, max_resource=9.0, eta=3)

        def make_objective(seed):  # noqa: ARG001 — the surrogate is seed-free
            return toy_objective(max_resource=9.0)

        kwargs = dict(num_workers=4, time_limit=60.0, seeds=[0, 1])
        seq = run_trials("ASHA", make_scheduler, make_objective, **kwargs)
        par = run_trials(
            "ASHA", make_scheduler, make_objective, **kwargs, backend="processes"
        )
        for a, b in zip(seq, par):
            assert pickle.dumps(a.backend) == pickle.dumps(b.backend)

    def test_run_trials_rejects_unknown_backend(self):
        def make_scheduler(objective, rng):
            return ASHA(objective.space, rng, min_resource=1.0, max_resource=9.0, eta=3)

        with pytest.raises(KeyError, match="unknown trial backend"):
            run_trials(
                "ASHA",
                make_scheduler,
                lambda seed: toy_objective(),
                num_workers=2,
                time_limit=10.0,
                seeds=[0],
                backend="threads",
            )
