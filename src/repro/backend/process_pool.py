"""GIL-free process-pool backend: speculative training in worker processes.

:class:`~repro.backend.simulation.SimulatedCluster` decides *when* a job
completes from its cost model and the cluster RNG alone — the loss never
feeds back into scheduling until the completion event fires.  That makes
training embarrassingly speculative: the moment a job is dispatched, its
``(state, config, from_resource, to_resource)`` inputs are fully determined,
so the actual :meth:`~repro.objectives.base.Objective.train` call can run in
a separate OS process while the event loop keeps advancing the virtual
clock.  :class:`ProcessPoolBackend` exploits exactly that seam:

* **submit** — at dispatch, the job's starting state is resolved (without
  emitting telemetry; see ``CheckpointStore.resolve_start``) and the
  training increment is shipped to a fork-based pool;
* **collect** — at the completion event, the deferred ``checkpoint_restored``
  payload is emitted *then* the worker's ``(state, loss)`` is awaited, so the
  telemetry stream, checkpoint contents, and reported losses are
  byte-identical to the inline path;
* **discard** — killed dispatches (drops, churn, timeouts) cancel their
  future; speculative work for a dead job is wasted CPU, never wrong output.

For CPU-bound objectives (the numpy MLP) this removes the GIL from the
training path entirely, unlike :class:`~repro.backend.threaded
.ThreadPoolBackend`.  Cheap surrogate objectives gain nothing — process
dispatch costs more than their ``train`` — so the backend is a knob, not a
default.

The pool uses the ``fork`` start method and inherits the objective through
the fork (objectives may close over arbitrary state and need not pickle);
only the picklable training inputs and outputs cross the pipe, which is the
``process_safe`` contract on :class:`~repro.objectives.base.Objective`.
Anything that rules the pool out — one core, no ``fork``, a
``process_safe = False`` objective, or running inside an experiment-level
pool worker — silently degrades to the inline strategy, which is always
correct.
"""

from __future__ import annotations

import multiprocessing
import os
import sys
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Any

from ..core.types import Job
from ..objectives.base import Objective
from ..telemetry import runtime
from .checkpoint import CheckpointStore
from .simulation import SimulatedCluster, _InlineExecution

__all__ = ["ProcessPoolBackend"]

#: Fork-inherited objective: set while a pool is alive so workers (forked
#: lazily at first submit) can train without the objective ever pickling.
_PROC_OBJECTIVE: Objective | None = None

#: True inside pool workers; a nested backend run there stays inline.
_PROC_IN_WORKER = False


def _mark_proc_worker() -> None:
    global _PROC_IN_WORKER
    _PROC_IN_WORKER = True


def _proc_entry(
    state: Any, config: dict[str, Any], from_resource: float, to_resource: float
) -> tuple[Any, float]:
    """Pool entry point: one training increment on the fork-inherited objective."""
    assert _PROC_OBJECTIVE is not None, "worker forked without an objective"
    return _PROC_OBJECTIVE.train(state, config, from_resource, to_resource)


def _inside_experiment_worker() -> bool:
    """True when running inside an experiment-level ``parallel_map`` worker.

    Looked up through ``sys.modules`` rather than imported: the backend layer
    sits below the experiments layer, and a direct import would be circular.
    """
    parallel = sys.modules.get("repro.experiments.parallel")
    return bool(parallel is not None and getattr(parallel, "_IN_WORKER", False))


def _can_fork() -> bool:
    return "fork" in multiprocessing.get_all_start_methods()


class _ProcessPoolExecution:
    """Execution strategy farming ``Objective.train`` out to worker processes.

    Pending work is keyed by job id: ``submit`` stores the future *and* the
    resolved ``(from_resource, state)`` inputs plus the deferred restore
    event, so ``collect`` can both keep telemetry ordering identical to the
    inline path and recompute in-process if the pool infrastructure breaks
    (a worker killed by the OS surfaces as :class:`BrokenProcessPool`, not
    as a training error — genuine exceptions raised *by* ``train`` are
    re-raised unchanged for the event loop's failure handling).
    """

    def __init__(self, store: CheckpointStore, objective: Objective, procs: int):
        self.store = store
        self.objective = objective
        #: job_id -> (future | None, restore_event, (from_resource, state)).
        self._pending: dict[
            int, tuple[Future[tuple[Any, float]] | None, dict[str, Any] | None, tuple[float, Any]]
        ] = {}
        # None unless a runtime registry is installed (repro.telemetry.runtime).
        self._probes = runtime.probes("backend", backend="processes")
        global _PROC_OBJECTIVE
        _PROC_OBJECTIVE = objective
        self._pool: ProcessPoolExecutor | None = ProcessPoolExecutor(
            max_workers=procs,
            mp_context=multiprocessing.get_context("fork"),
            initializer=_mark_proc_worker,
        )

    def submit(self, job: Job, cached: bool = False) -> None:
        from_resource, state, restore_event = self.store.resolve_start(job, self.objective)
        if cached:
            # The study's journal already holds this job's loss (replay):
            # keep the dispatch-time bookkeeping — the snapshot consumption
            # and deferred restore event above — but skip the speculative
            # training entirely; nothing is forked for an already-known job.
            self._pending[job.job_id] = (None, restore_event, (from_resource, state))
            return
        # A replayed trial's checkpoint is a lazy placeholder; rebuild the
        # real state before it crosses the process boundary.
        state = self.store.materialize(state, self.objective)
        future: Future[tuple[Any, float]] | None = None
        if self._pool is not None:
            try:
                future = self._pool.submit(
                    _proc_entry, state, job.config, from_resource, job.resource
                )
            except Exception:  # pool already broken/shut down — collect inline
                future = None
        self._pending[job.job_id] = (future, restore_event, (from_resource, state))
        if self._probes is not None:
            self._probes.dispatches.inc()
            self._probes.in_flight.set(float(len(self._pending)))

    def collect(self, job: Job) -> float:
        future, restore_event, inputs = self._pending.pop(job.job_id)
        probes = self._probes
        if probes is not None:
            probes.collects.inc()
            probes.in_flight.set(float(len(self._pending)))
        # Emit the deferred restore *before* touching the future so the event
        # lands at the completion clock, exactly where the inline path emits.
        self.store.emit_restore(restore_event)
        state_loss: tuple[Any, float] | None = None
        if future is not None:
            try:
                state_loss = future.result()
            except BrokenProcessPool:
                # Infrastructure death, not a training error: the inputs were
                # saved at submit, so the inline recompute is exact.
                state_loss = None
            if state_loss is None and probes is not None:
                # The speculative result was lost with the pool; the inline
                # recompute below is a backend-level retry.
                probes.retries.inc()
        if state_loss is None:
            from_resource, state = inputs
            state = self.store.materialize(state, self.objective)
            state_loss = self.objective.train(state, job.config, from_resource, job.resource)
        state, loss = state_loss
        self.store.put(job.trial_id, job.resource, state)
        return loss

    def collect_replayed(self, job: Job) -> None:
        """A journal-replayed job completed: bookkeeping only, no training.

        The restore event was resolved at dispatch (so donor snapshots were
        consumed at the same clock as a live run); emit it now and install
        the lazy placeholder checkpoint.
        """
        _, restore_event, _ = self._pending.pop(job.job_id)
        self.store.emit_restore(restore_event)
        self.store.replay_placeholder(job)

    def discard(self, job: Job) -> None:
        pending = self._pending.pop(job.job_id, None)
        if pending is not None and pending[0] is not None:
            pending[0].cancel()
        if pending is not None and self._probes is not None:
            self._probes.in_flight.set(float(len(self._pending)))

    def close(self) -> None:
        global _PROC_OBJECTIVE
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None
        if _PROC_OBJECTIVE is self.objective:
            _PROC_OBJECTIVE = None
        self._pending.clear()


class ProcessPoolBackend(SimulatedCluster):
    """A :class:`SimulatedCluster` whose training runs in worker processes.

    Scheduling, clocks, telemetry, and RNG draws are inherited verbatim from
    the simulated cluster — this class only swaps the training-execution
    strategy, so every output (records, metric reports, golden traces) is
    byte-identical to the inline backend under the same seed.  The win is
    wall-clock: CPU-bound ``train`` calls (e.g.
    :class:`~repro.objectives.mlp_real.RealMLPObjective`) run concurrently
    across real cores instead of serialising on the GIL.

    Parameters are those of :class:`SimulatedCluster` plus:

    n_procs:
        OS processes in the training pool.  Defaults to
        ``min(num_workers, os.cpu_count())`` — more processes than simulated
        workers can never be busy, more than cores never helps.
    """

    def __init__(self, num_workers: int, *, n_procs: int | None = None, **kwargs: Any):
        super().__init__(num_workers, **kwargs)
        if n_procs is not None and n_procs < 1:
            raise ValueError(f"n_procs must be >= 1, got {n_procs}")
        self.n_procs = n_procs

    def _make_execution(self, store: CheckpointStore, objective: Objective):
        procs = self.n_procs
        if procs is None:
            procs = min(self.num_workers, os.cpu_count() or 1)
        if (
            procs <= 1
            or _PROC_IN_WORKER
            or _inside_experiment_worker()
            or not _can_fork()
            or not getattr(objective, "process_safe", True)
        ):
            return _InlineExecution(store, objective)
        return _ProcessPoolExecution(store, objective, procs)
