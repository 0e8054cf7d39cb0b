"""Process-based fan-out for experiment trials.

The paper's whole point is the large-scale regime, and reproducing it means
running many independent ``(method, seed)`` searches — Figure 5 alone is
three methods x several seeds x ~10^5 simulated jobs each.  Every one of
those searches is deterministic given its seed and shares nothing with its
siblings, so they parallelise perfectly across processes (threads do not
help: the simulation is pure Python and GIL-bound).

Design constraints, in order:

* **Identical output.**  A parallel run must produce byte-identical
  :class:`~repro.analysis.results.RunRecord` lists — same traces, same
  backend logs, same telemetry metric reports — as the sequential path.
  Each trial derives every RNG from its seed, so where it executes cannot
  matter; results are always returned in task order, never completion
  order.
* **Closures welcome.**  Scheduler factories are usually closures over
  method settings (see :func:`~repro.experiments.methods.standard_methods`)
  and closures do not pickle.  The pool is therefore a :mod:`repro.forkpool`
  one: workers inherit function and task list through the fork and are sent
  *index spans* (two ints); only those and the picklable results cross the pipe.
* **Amortised dispatch.**  Tasks are batched into contiguous *chunks* sized
  so each worker receives ~one dispatch per pool lifetime (``ceil(n_tasks /
  n_jobs)`` tasks per chunk by default).  One submit, one pipe round-trip
  and one result pickle per chunk instead of per task — at Figure-5 scale
  the per-task dispatch overhead used to eat the whole speedup.
* **Graceful fallback.**  Anything that prevents parallel execution — no
  ``fork`` on the platform, an unpicklable result, a broken pool — quietly
  degrades to the in-process path, which is always correct.  Genuine task
  errors still surface: a chunk whose worker raised is recomputed
  in-process in task order, so the original exception is re-raised at the
  task that caused it.

The worker count comes from the ``n_jobs=`` argument or, when that is
``None``, the ``REPRO_JOBS`` environment variable — the shared knob the
figure benches expose via ``--jobs`` (see ``benchmarks/conftest.py``).
"""

from __future__ import annotations

import math
import os
from concurrent.futures import Executor, Future
from typing import Any, Callable, Sequence, TypeVar

from ..forkpool import open_pool

__all__ = ["JOBS_ENV_VAR", "chunk_spans", "parallel_map", "resolve_jobs"]

T = TypeVar("T")
R = TypeVar("R")

#: Environment variable supplying the default worker count.
JOBS_ENV_VAR = "REPRO_JOBS"


def resolve_jobs(n_jobs: int | None = None) -> int:
    """The effective worker count for a parallel experiment run.

    ``n_jobs`` wins when given; otherwise ``$REPRO_JOBS`` is consulted and
    an unset/empty variable means 1 (the in-process path).  Negative values
    mean "all cores", joblib-style.
    """
    if n_jobs is None:
        raw = os.environ.get(JOBS_ENV_VAR, "").strip()
        if not raw:
            return 1
        try:
            n_jobs = int(raw)
        except ValueError as exc:
            raise ValueError(f"{JOBS_ENV_VAR} must be an integer, got {raw!r}") from exc
    if n_jobs == 0:
        raise ValueError("n_jobs must be nonzero (use 1 for sequential, -1 for all cores)")
    if n_jobs < 0:
        return max(os.cpu_count() or 1, 1)
    return n_jobs


def chunk_spans(
    n_tasks: int, jobs: int, chunksize: int | None = None
) -> list[tuple[int, int]]:
    """Contiguous ``[start, stop)`` spans batching ``n_tasks`` across ``jobs``.

    The default chunk size is ``ceil(n_tasks / jobs)`` — every worker gets
    one dispatch, so per-chunk overhead (submit, pipe round-trip, result
    pickle) is paid ``jobs`` times per pool instead of ``n_tasks`` times.
    Pass an explicit ``chunksize`` for finer load balancing when task
    durations are very uneven (smaller chunks re-balance better but dispatch
    more often).
    """
    if n_tasks < 0:
        raise ValueError(f"n_tasks must be >= 0, got {n_tasks}")
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if chunksize is None:
        chunksize = max(1, math.ceil(n_tasks / jobs))
    elif chunksize < 1:
        raise ValueError(f"chunksize must be >= 1, got {chunksize}")
    return [(start, min(start + chunksize, n_tasks)) for start in range(0, n_tasks, chunksize)]


def parallel_map(
    fn: Callable[[T], R],
    tasks: Sequence[T],
    n_jobs: int | None = None,
    *,
    executor: Executor | None = None,
    chunksize: int | None = None,
) -> list[R]:
    """``[fn(t) for t in tasks]`` fanned out across processes.

    Results are returned in task order regardless of completion order.  With
    ``n_jobs`` resolving to 1, a single chunk, inside a pool worker or without
    ``fork`` (:func:`repro.forkpool.open_pool` declines) everything runs
    in-process.  An injected ``executor`` is used as-is
    (its tasks must then be picklable and are submitted one at a time);
    otherwise a fork-based pool is created for the duration of the call and
    tasks are dispatched in contiguous chunks (see :func:`chunk_spans`;
    override the sizing heuristic with ``chunksize=``).  Any failure to
    execute a chunk remotely falls back to computing that chunk in-process,
    so genuine task errors still surface — re-raised from the fallback path
    at the task that caused them.
    """
    tasks = list(tasks)
    jobs = resolve_jobs(n_jobs)
    if executor is not None:
        return _map_with_executor(fn, tasks, executor)
    spans = chunk_spans(len(tasks), jobs, chunksize)

    def run_span(start: int, stop: int) -> list[Any]:
        return [fn(tasks[i]) for i in range(start, stop)]

    results: list[Any] = [None] * len(tasks)
    delivered = [False] * len(spans)
    pool = None
    try:
        pool = open_pool(run_span, min(jobs, len(spans)))
        futures = [] if pool is None else [pool.submit(*span) for span in spans]
        for k, future in enumerate(futures):
            start, stop = spans[k]
            try:
                results[start:stop] = future.result()
            except Exception:
                # This chunk could not be delivered (unpicklable result,
                # broken pool, or a genuine mid-chunk task error); it is
                # recomputed — and any genuine error re-raised — below.
                continue
            delivered[k] = True
    except Exception:
        # Pool setup or submission failed outright (resource limits): every
        # undelivered chunk is recomputed in-process below.
        pass
    finally:
        if pool is not None:
            pool.close(wait=True)
    for k, (start, stop) in enumerate(spans):
        if not delivered[k]:
            results[start:stop] = run_span(start, stop)
    return results


def _map_with_executor(
    fn: Callable[[T], R], tasks: list[T], executor: Executor
) -> list[R]:
    """Map over an injected executor, falling back per-task on failure."""
    futures: list[Future[R] | None] = []
    for task in tasks:
        try:
            futures.append(executor.submit(fn, task))
        except Exception:  # unpicklable task for this executor type
            futures.append(None)
    results: list[Any] = [None] * len(tasks)
    for i, future in enumerate(futures):
        if future is None:
            results[i] = fn(tasks[i])
            continue
        try:
            results[i] = future.result()
        except Exception:
            # Executor-side failure (e.g. pickling the closure for a spawn
            # pool); the in-process retry re-raises genuine task errors.
            results[i] = fn(tasks[i])
    return results
