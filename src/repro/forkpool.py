"""Run one closure in forked worker processes.

Closures (scheduler factories over method settings, an objective's bound
``train``) do not pickle, so a pool that runs them uses the ``fork`` start
method and hands its workers a *key* into a module-level table they inherit
through the fork; only the key, the picklable arguments and the picklable
result cross the pipe.  The table is keyed per pool and an entry lives exactly
as long as its pool, so any number of pools may be alive at once — each
worker calls the closure of the pool that forked it — and a closed pool
leaves nothing behind.
"""

from __future__ import annotations

import multiprocessing
from concurrent.futures import Future, ProcessPoolExecutor
from typing import Any, Callable

__all__ = ["ForkPool", "open_pool"]

#: ``id(pool)`` -> that pool's closure, while the pool is alive.  Workers fork
#: lazily (at a submit), always after their pool's entry was written.
_INHERITED: dict[int, Callable[..., Any]] = {}

#: True inside pool workers: one level of process fan-out is the useful one,
#: so :func:`open_pool` declines there and the caller runs in-process.
_IN_WORKER = False


def _mark_worker() -> None:
    global _IN_WORKER
    _IN_WORKER = True


def _call(key: int, *args: Any) -> Any:
    """Worker entry point: call the fork-inherited closure of pool ``key``."""
    return _INHERITED[key](*args)


class ForkPool:
    """A process pool whose every task is one call of the closure it was opened with."""

    def __init__(self, fn: Callable[..., Any], max_workers: int):
        self._executor = ProcessPoolExecutor(
            max_workers=max_workers,
            mp_context=multiprocessing.get_context("fork"),
            initializer=_mark_worker,
        )
        _INHERITED[id(self)] = fn

    def submit(self, *args: Any) -> Future[Any]:
        """Schedule ``fn(*args)`` in a worker; ``args`` and the result must pickle."""
        return self._executor.submit(_call, id(self), *args)

    def close(self, *, wait: bool = False) -> None:
        """Cancel what has not started and drop the closure; idempotent.

        Calls already running finish unobserved unless ``wait`` joins the workers.
        """
        self._executor.shutdown(wait=wait, cancel_futures=True)
        _INHERITED.pop(id(self), None)


def open_pool(fn: Callable[..., Any], max_workers: int) -> ForkPool | None:
    """A :class:`ForkPool` running ``fn``, or ``None`` when the caller should run in-process.

    ``None`` when one worker (or none) is asked for, inside a pool worker, or
    on a platform without the ``fork`` start method.
    """
    if max_workers <= 1 or _IN_WORKER or "fork" not in multiprocessing.get_all_start_methods():
        return None
    return ForkPool(fn, max_workers)
