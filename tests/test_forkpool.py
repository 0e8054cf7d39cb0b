"""repro.forkpool: one closure per pool, inherited through the fork.

The table workers look their closure up in is keyed per pool, so pools alive
at once cannot call each other's closure — the defect the single-slot globals
this module replaced had — and a closed pool leaves no entry behind.
"""

from __future__ import annotations

import multiprocessing
import os

from repro import forkpool
from repro.forkpool import open_pool


def test_two_pools_alive_at_once_each_call_their_own_closure():
    # Closures over local state: neither pickles, both must cross the fork.
    pools = [
        open_pool(lambda x, offset=offset: (os.getpid(), x + offset), 2) for offset in (0, 100)
    ]
    try:
        # Interleaved submits: every worker of either pool forks while both
        # entries are in the table.
        futures = [(k, x, pools[k].submit(x)) for x in range(6) for k in (0, 1)]
        for k, x, future in futures:
            pid, value = future.result(timeout=60)
            assert pid != os.getpid()
            assert value == x + 100 * k
    finally:
        for pool in pools:
            pool.close(wait=True)
    assert forkpool._INHERITED == {}


def test_closing_one_pool_leaves_the_other_its_closure():
    first, second = open_pool(lambda: "first", 2), open_pool(lambda: "second", 2)
    try:
        first.close(wait=True)
        assert second.submit().result(timeout=60) == "second"
    finally:
        first.close()
        second.close(wait=True)
    assert forkpool._INHERITED == {}


def test_declines_for_one_worker_nested_or_forkless(monkeypatch):
    assert open_pool(abs, 1) is None
    assert open_pool(abs, 0) is None
    with monkeypatch.context() as patch:
        patch.setattr(forkpool, "_IN_WORKER", True)
        assert open_pool(abs, 2) is None
    with monkeypatch.context() as patch:
        patch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
        assert open_pool(abs, 2) is None
    assert forkpool._INHERITED == {}


def test_a_worker_declines_to_open_a_pool_of_its_own():
    pool = open_pool(lambda: open_pool(abs, 2) is None, 2)
    try:
        assert pool.submit().result(timeout=60) is True
    finally:
        pool.close(wait=True)
