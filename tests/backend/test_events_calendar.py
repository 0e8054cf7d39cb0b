"""Calendar-queue ``EventQueue`` vs the reference heap: lockstep equivalence.

The calendar queue replaced the binary heap on the simulator's hottest path
(PR: batched ask/tell + calendar core).  Its entire contract is
*indistinguishability*: identical delivery order (strict ``(time, seq)``
FIFO tie-break), identical clock advancement, and identical discard
semantics under any interleaving of operations.  ``HeapEventQueue`` — the
heap as it was, in ``heap_event_queue.py`` beside this file — is the
behavioural oracle; hypothesis drives both in lockstep.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heap_event_queue import HeapEventQueue

from repro.backend.events import EventQueue, SimEvent

# Times drawn tie-heavy (coarse grid) and wide (up to 1e9 simulated
# seconds), plus sub-second jitter — covering one-giant-bucket,
# many-sparse-buckets, and every-event-ties regimes.
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


def test_sim_event_is_hashable_consistent_with_eq():
    # Regression: defining __eq__ on the slotted class silently dropped the
    # inherited __hash__, so events could no longer live in sets or key the
    # simulator's dead-event bookkeeping.
    a = SimEvent(time=1.5, seq=3, kind="job_finished", payload={"job": 1})
    b = SimEvent(time=1.5, seq=3, kind="worker_churn", payload=None)
    c = SimEvent(time=1.5, seq=4, kind="job_finished", payload=None)
    assert a == b and hash(a) == hash(b)  # kind/payload never participate
    assert a != c
    assert len({a, b, c}) == 2
    assert {a: "x"}[b] == "x"


@pytest.mark.parametrize("width", [1e-3, 1.0, 1e6])
def test_drain_order_matches_heap(width):
    heap, calendar = HeapEventQueue(), EventQueue(bucket_width=width)
    times = [3.0, 1.0, 1.0, 2.5, 1.0, 0.0, 3.0, 2.5]
    for i, t in enumerate(times):
        heap.push(t, f"k{i}")
        calendar.push(t, f"k{i}")
    drained = []
    while calendar:
        a, b = heap.pop(), calendar.pop()
        assert (a.time, a.seq, a.kind) == (b.time, b.seq, b.kind)
        assert heap.clock == calendar.clock
        drained.append(b.time)
    assert drained == sorted(times)


@settings(max_examples=300, deadline=None)
@given(ops=_ops)
def test_lockstep_equivalence_with_heap(ops):
    heap, calendar = HeapEventQueue(), EventQueue()
    for op, delta in ops:
        if op == "push":
            # Push relative to the clock so scripts stay valid after pops.
            t = heap.clock + delta
            a = heap.push(t, "k")
            b = calendar.push(t, "k")
            assert (a.time, a.seq) == (b.time, b.seq)
        elif op == "pop":
            if not heap:
                with pytest.raises(IndexError):
                    calendar.pop()
                continue
            a, b = heap.pop(), calendar.pop()
            assert (a.time, a.seq) == (b.time, b.seq)
        elif op == "peek":
            a, b = heap.peek(), calendar.peek()
            assert (a is None) == (b is None)
            if a is not None:
                assert (a.time, a.seq) == (b.time, b.seq)
            assert heap.peek_time() == calendar.peek_time()
        else:  # discard
            if not heap:
                with pytest.raises(IndexError):
                    calendar.discard_next()
                continue
            heap.discard_next()
            calendar.discard_next()
        assert heap.clock == calendar.clock
        assert len(heap) == len(calendar)
    # Drain whatever is left: full delivery order must agree.
    while heap:
        a, b = heap.pop(), calendar.pop()
        assert (a.time, a.seq) == (b.time, b.seq)
    assert not calendar


def test_rebucketing_preserves_order_across_resizes():
    # Push far past the resize threshold (64) with a pathological initial
    # width so the adaptive rebucketing fires repeatedly, then drain.
    calendar, heap = EventQueue(bucket_width=1e9), HeapEventQueue()
    for i in range(1000):
        t = float((i * 7919) % 97) + (i % 13) * 0.125
        calendar.push(t, "k")
        heap.push(t, "k")
    while heap:
        a, b = heap.pop(), calendar.pop()
        assert (a.time, a.seq) == (b.time, b.seq)
    assert not calendar


def test_push_below_active_bucket_reorders_correctly():
    # Activate a far-future bucket, then push an earlier event: the active
    # remainder must spill back and the earlier event must deliver first.
    q = EventQueue(bucket_width=1.0)
    q.push(10.0, "late")
    q.push(10.5, "later")
    assert q.peek().kind == "late"  # activates bucket 10
    q.push(2.0, "early")
    assert [q.pop().kind for _ in range(3)] == ["early", "late", "later"]
    assert q.clock == 10.5


def test_push_before_clock_rejected():
    q = EventQueue()
    q.push(5.0, "k")
    q.pop()
    with pytest.raises(ValueError):
        q.push(4.0, "k")


def test_invalid_bucket_width_rejected():
    with pytest.raises(ValueError):
        EventQueue(bucket_width=0.0)


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
    heap, calendar = HeapEventQueue(), EventQueue()
    delivered: dict[int, list[tuple[float, int]]] = {s: [] for s in range(4)}
    for op, study, delta in ops:
        if op == "push":
            t = heap.clock + delta
            payload = (study, {"study": study})
            a = heap.push(t, "job_finished", payload)
            b = calendar.push(t, "job_finished", payload)
            assert a.payload is payload and b.payload is payload
        elif op == "pop":
            if not heap:
                continue
            a, b = heap.pop(), calendar.pop()
            assert (a.time, a.seq) == (b.time, b.seq)
            assert a.payload == b.payload
            tag = b.payload[0]
            delivered[tag].append((b.time, b.seq))
        else:  # discard
            if not heap:
                continue
            heap.discard_next()
            calendar.discard_next()
        assert heap.clock == calendar.clock
        assert len(heap) == len(calendar)
    while heap:
        a, b = heap.pop(), calendar.pop()
        assert (a.time, a.seq) == (b.time, b.seq) and a.payload == b.payload
        delivered[b.payload[0]].append((b.time, b.seq))
    # Each study's projection of the shared stream is itself sorted: a
    # study multiplexed with others sees its own events in solo order.
    for stream in delivered.values():
        assert stream == sorted(stream)


@settings(max_examples=200, deadline=None)
@given(
    widths=st.floats(min_value=1e-6, max_value=1e12, allow_nan=False),
    times=st.lists(_times, min_size=65, max_size=300),
)
def test_resize_and_wraparound_preserve_order(widths, times):
    """Any initial bucket width — including ones forcing repeated adaptive
    resizes and year-ring wraparound (times far beyond width * num_buckets)
    — yields heap-identical delivery."""
    heap, calendar = HeapEventQueue(), EventQueue(bucket_width=widths)
    for t in times:
        heap.push(t, "k")
        calendar.push(t, "k")
    while heap:
        a, b = heap.pop(), calendar.pop()
        assert (a.time, a.seq) == (b.time, b.seq)
        assert heap.clock == calendar.clock
    assert not calendar


def test_adaptive_resize_recomputes_width():
    # White-box: crossing the resize threshold (64) with a pathological
    # width must actually change ``_width`` — otherwise every event sits in
    # one giant bucket and pop degrades to a full sort per activation.
    q, heap = EventQueue(bucket_width=1e9), HeapEventQueue()
    for i in range(65):
        t = float(i)
        q.push(t, "k")
        heap.push(t, "k")
    assert q._width != 1e9  # resize fired and fit the observed span
    while heap:
        a, b = heap.pop(), q.pop()
        assert (a.time, a.seq) == (b.time, b.seq)


def test_huge_times_with_tiny_width_stay_ordered():
    # Bucket ids are int(time / width): huge times over a tiny width make
    # astronomically large ids.  The rebucket guard (hi/width < 1e15)
    # must refuse precision-losing widths while delivery stays exact.
    q, heap = EventQueue(bucket_width=1e-6), HeapEventQueue()
    times = [1e12, 3.0, 1e12 + 0.5, 7.0, 2e12, 0.25]
    for t in times:
        q.push(t, "k")
        heap.push(t, "k")
    drained = []
    while q:
        a, b = heap.pop(), q.pop()
        assert (a.time, a.seq) == (b.time, b.seq)
        drained.append(b.time)
    assert drained == sorted(times)


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
