"""GIL-free process-pool backend: speculative training in worker processes.

:class:`~repro.backend.simulation.SimulatedCluster` decides *when* a job
completes from its cost model and the cluster RNG alone — the loss never
feeds back into scheduling until the completion event fires.  That makes
training embarrassingly speculative: the moment a job is dispatched, its
``(state, config, from_resource, to_resource)`` inputs are fully determined,
so the actual :meth:`~repro.objectives.base.Objective.train` call can run in
a separate OS process while the event loop keeps advancing the virtual
clock.  :class:`ProcessPoolBackend` exploits exactly that:

* **dispatch** — the job's starting state is *peeked* (nothing emitted,
  nothing consumed; ``CheckpointStore.starting_state(peek=True)``) and the
  training increment is shipped to the run's pool;
* **completion** — the simulator's one completion path runs unchanged, with
  the worker's ``(state, loss)`` standing in for the ``train`` call, so the
  telemetry stream, checkpoint contents, and reported losses are
  byte-identical to the plain simulator's;
* **kill** — dropped, churned and timed-out dispatches cancel their future;
  speculative work for a dead job is wasted CPU, never wrong output.

For CPU-bound objectives (the numpy MLP) this removes the GIL from the
training path entirely, unlike :class:`~repro.backend.threaded
.ThreadPoolBackend`.  Cheap surrogate objectives gain nothing — process
dispatch costs more than their ``train`` — so the backend is a knob, not a
default.

Workers inherit the objective through the fork (:mod:`repro.forkpool`; it
need not pickle); only the picklable training inputs and outputs cross the
pipe, which is the ``process_safe`` contract on
:class:`~repro.objectives.base.Objective`.  Anything that rules the pool out
— one core, no ``fork``, a ``process_safe = False`` objective, or running
inside another pool's worker — silently leaves the run a plain simulated
one, which is always correct.
"""

from __future__ import annotations

import os
from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool
from typing import Any

from ..core.types import Job
from ..forkpool import ForkPool, open_pool
from ..objectives.base import Objective
from ..telemetry import runtime
from .simulation import SimulatedCluster

__all__ = ["ProcessPoolBackend"]


class _TrainingPool:
    """One run's speculative training: job id -> the future training it.

    ``take`` re-raises exceptions raised *by* ``train`` unchanged, for the
    event loop's failure handling; a worker killed by the OS surfaces as
    :class:`BrokenProcessPool` instead, and is reported as a lost result —
    the completion then trains in-process from the same inputs, exactly.
    """

    def __init__(self, pool: ForkPool):
        self._pool = pool
        self._futures: dict[int, Future[tuple[Any, float]]] = {}
        # None unless a runtime registry is installed (repro.telemetry.runtime).
        self._probes = runtime.probes("backend", backend="processes")

    def _set_in_flight(self) -> None:
        if self._probes is not None:
            self._probes.in_flight.set(float(len(self._futures)))

    def prefetch(self, job: Job, from_resource: float, state: Any) -> None:
        """Start ``job``'s training increment in a worker."""
        try:
            future = self._pool.submit(state, job.config, from_resource, job.resource)
        except Exception:  # pool already broken/shut down — the completion trains
            return
        self._futures[job.job_id] = future
        if self._probes is not None:
            self._probes.dispatches.inc()
        self._set_in_flight()

    def take(self, job: Job) -> tuple[Any, float] | None:
        """The worker's ``(state, loss)`` for ``job``; ``None`` if none was kept."""
        future = self._futures.pop(job.job_id, None)
        if future is None:
            return None
        if self._probes is not None:
            self._probes.collects.inc()
        self._set_in_flight()
        try:
            return future.result()
        except BrokenProcessPool:
            if self._probes is not None:
                self._probes.retries.inc()  # the in-process recompute is a retry
            return None

    def discard(self, job: Job) -> None:
        future = self._futures.pop(job.job_id, None)
        if future is not None:
            future.cancel()
            self._set_in_flight()

    def close(self) -> None:
        self._pool.close()
        self._futures.clear()


class ProcessPoolBackend(SimulatedCluster):
    """A :class:`SimulatedCluster` whose training runs in worker processes.

    Scheduling, clocks, telemetry, and RNG draws are inherited verbatim from
    the simulated cluster — this class only gives each run a training pool,
    so every output (records, metric reports, golden traces) is
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

    probes_as = ("retries", "processes")

    def __init__(self, num_workers: int, *, n_procs: int | None = None, **kwargs: Any):
        super().__init__(num_workers, **kwargs)
        if n_procs is not None and n_procs < 1:
            raise ValueError(f"n_procs must be >= 1, got {n_procs}")
        self.n_procs = n_procs

    def _training_pool(self, objective: Objective) -> _TrainingPool | None:
        if not getattr(objective, "process_safe", True):
            return None
        procs = self.n_procs
        if procs is None:
            procs = min(self.num_workers, os.cpu_count() or 1)
        pool = open_pool(objective.train, procs)
        return None if pool is None else _TrainingPool(pool)
