"""``EventQueue`` vs an independent reference heap: lockstep equivalence.

The queue was once a calendar queue and is now itself a binary heap; either
way its contract is *indistinguishability* from a plain :mod:`heapq` of
``(time, seq)`` keys: identical delivery order (strict ``(time, seq)`` FIFO
tie-break), identical clock advancement, and identical discard semantics
under any interleaving of operations.  ``_ReferenceHeap`` below is that
oracle, written without any of ``repro``; hypothesis drives both in
lockstep.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backend.events import EventQueue


class _ReferenceHeap:
    """A min-heap of ``(time, seq, kind, payload)`` with a monotonic clock."""

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, str, Any]] = []
        self._seq = itertools.count()
        self.clock = 0.0

    def push(self, time: float, kind: str, payload: Any = None) -> tuple[float, int, str, Any]:
        if time < self.clock:
            raise ValueError(f"cannot schedule event at {time} before clock {self.clock}")
        entry = (time, next(self._seq), kind, payload)
        heapq.heappush(self._heap, entry)
        return entry

    def pop(self) -> tuple[float, int, str, Any]:
        entry = heapq.heappop(self._heap)
        self.clock = entry[0]
        return entry

    def peek(self) -> tuple[float, int, str, Any] | None:
        return self._heap[0] if self._heap else None

    def discard_next(self) -> None:
        heapq.heappop(self._heap)

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)


def _key(event) -> tuple[float, int]:
    return (event.time, event.seq)


# Times drawn tie-heavy (coarse grid) and wide (up to 1e9 simulated
# seconds), plus sub-second jitter.
_times = st.one_of(
    st.integers(min_value=0, max_value=20).map(float),
    st.floats(min_value=0.0, max_value=1e9, allow_nan=False, allow_infinity=False),
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False, allow_infinity=False),
)

# An operation script: push a delta past the clock, or pop/peek/discard.
_ops = st.lists(
    st.one_of(
        st.tuples(st.just("push"), _times),
        st.sampled_from([("pop", None), ("peek", None), ("discard", None)]),
    ),
    max_size=200,
)


@settings(max_examples=300, deadline=None)
@given(ops=_ops)
def test_lockstep_equivalence_with_heap(ops):
    heap, q = _ReferenceHeap(), EventQueue()
    for op, delta in ops:
        if op == "push":
            # Push relative to the clock so scripts stay valid after pops.
            t = heap.clock + delta
            a = heap.push(t, "k")
            b = q.push(t, "k")
            assert a[:2] == _key(b)
        elif op == "pop":
            if not heap:
                with pytest.raises(IndexError):
                    q.pop()
                continue
            assert heap.pop()[:2] == _key(q.pop())
        elif op == "peek":
            a, b = heap.peek(), q.peek()
            assert (a is None) == (b is None)
            if a is not None:
                assert a[:2] == _key(b)
        else:  # discard
            if not heap:
                with pytest.raises(IndexError):
                    q.discard_next()
                continue
            heap.discard_next()
            q.discard_next()
        assert heap.clock == q.clock
        assert len(heap) == len(q)
    # Drain whatever is left: full delivery order must agree.
    while heap:
        assert heap.pop()[:2] == _key(q.pop())
    assert not q


def test_push_before_clock_rejected():
    q = EventQueue()
    q.push(5.0, "k")
    q.pop()
    with pytest.raises(ValueError):
        q.push(4.0, "k")


# ---------------------------------------------------------------------------
# Multiplexed regime: one queue, events tagged by study.  These pin the
# contracts ``StudyMultiplexer`` leans on — per-study FIFO order survives
# interleaving with other studies' events, and ``discard_next`` (the lazy
# dead-event mechanism for finished studies) never perturbs what the
# surviving studies observe.
# ---------------------------------------------------------------------------

# A tagged stream: each op carries the study id it belongs to.
_tagged_ops = st.lists(
    st.one_of(
        st.tuples(st.just("push"), st.integers(min_value=0, max_value=3), _times),
        st.tuples(st.just("pop"), st.just(None), st.just(None)),
        st.tuples(st.just("discard"), st.just(None), st.just(None)),
    ),
    max_size=200,
)


@settings(max_examples=300, deadline=None)
@given(ops=_tagged_ops)
def test_tagged_streams_lockstep_with_heap(ops):
    """Study-tagged payloads ride through both queues untouched and in the
    same order, and the per-study projection of the delivery stream is FIFO
    in (time, seq) — exactly what byte-identical multiplexed journals need.
    """
    heap, q = _ReferenceHeap(), EventQueue()
    delivered: dict[int, list[tuple[float, int]]] = {s: [] for s in range(4)}
    for op, study, delta in ops:
        if op == "push":
            t = heap.clock + delta
            payload = (study, {"study": study})
            a = heap.push(t, "job_finished", payload)
            b = q.push(t, "job_finished", payload)
            assert a[3] is payload and b.payload is payload
        elif op == "pop":
            if not heap:
                continue
            a, b = heap.pop(), q.pop()
            assert a[:2] == _key(b)
            assert a[3] is b.payload
            delivered[b.payload[0]].append(_key(b))
        else:  # discard
            if not heap:
                continue
            heap.discard_next()
            q.discard_next()
        assert heap.clock == q.clock
        assert len(heap) == len(q)
    while heap:
        a, b = heap.pop(), q.pop()
        assert a[:2] == _key(b) and a[3] is b.payload
        delivered[b.payload[0]].append(_key(b))
    # Each study's projection of the shared stream is itself sorted: a
    # study multiplexed with others sees its own events in solo order.
    for stream in delivered.values():
        assert stream == sorted(stream)


def test_discard_by_study_interleaving():
    """The multiplexer's finished-study pattern: discard the head whenever
    it belongs to a dead study.  Survivors' order and the clock must match
    a queue that never contained the dead study at all."""
    dead, live = 0, 1
    witness = EventQueue()  # only ever sees the live study's events
    q = EventQueue()
    times = [1.0, 1.0, 2.0, 3.0, 3.0, 4.0, 5.0, 5.0]
    for i, t in enumerate(times):
        study = dead if i % 2 == 0 else live
        q.push(t, "job_finished", (study, i))
        if study == live:
            witness.push(t, "job_finished", (study, i))
    survivors = []
    while q:
        head = q.peek()
        if head.payload[0] == dead:
            before = q.clock
            q.discard_next()
            assert q.clock == before  # discard never advances the clock
            continue
        survivors.append(q.pop().payload)
    assert survivors == [witness.pop().payload for _ in range(len(witness))]
    assert q.clock == witness.clock == 5.0
