"""Tests for the discrete-event kernel."""

from __future__ import annotations

import bisect
import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backend import EventQueue


def test_orders_by_time():
    q = EventQueue()
    q.push(3.0, "c")
    q.push(1.0, "a")
    q.push(2.0, "b")
    assert [q.pop().kind for _ in range(3)] == ["a", "b", "c"]


def test_fifo_tie_break():
    q = EventQueue()
    q.push(1.0, "first")
    q.push(1.0, "second")
    q.push(1.0, "third")
    assert [q.pop().kind for _ in range(3)] == ["first", "second", "third"]


def test_clock_advances_monotonically():
    q = EventQueue()
    for t in (5.0, 1.0, 3.0):
        q.push(t, "e")
    times = [q.pop().time for _ in range(3)]
    assert times == sorted(times)
    assert q.clock == 5.0


def test_rejects_past_events():
    q = EventQueue()
    q.push(2.0, "e")
    q.pop()
    with pytest.raises(ValueError):
        q.push(1.0, "late")


def test_pop_empty_raises():
    with pytest.raises(IndexError):
        EventQueue().pop()


def test_peek_and_len():
    q = EventQueue()
    assert q.peek() is None
    assert not q
    q.push(1.5, "e")
    assert q.peek().time == 1.5
    assert len(q) == 1


@settings(max_examples=50, deadline=None)
@given(times=st.lists(st.floats(0, 1e6, allow_nan=False), min_size=1, max_size=50))
def test_drain_order_is_sorted(times):
    q = EventQueue()
    for t in times:
        q.push(t, "e", payload=t)
    drained = [q.pop().payload for _ in range(len(times))]
    assert drained == sorted(times)


@pytest.mark.parametrize("bad", [math.nan, 1.0])
def test_a_rejected_push_changes_nothing(bad):
    q = EventQueue()
    q.push(2.0, "e")
    q.pop()
    with pytest.raises(ValueError, match="before clock 2.0"):
        q.push(bad, "late")
    assert len(q) == 0 and not q and q.peek() is None
    assert q.clock == 2.0
    q.push(3.0, "next")
    assert q.pop().seq == 1


def test_an_infinite_time_is_accepted_and_pops_last():
    q = EventQueue()
    q.push(math.inf, "never")
    q.push(1e300, "late")
    q.push(0.0, "now")
    assert [q.pop().kind for _ in range(3)] == ["now", "late", "never"]
    assert q.clock == math.inf


# ---------------------------------------------------------------------------
# Model-based: the queue against a sorted list of (time, seq, event).
#
# Scripts interleave study-tagged pushes (times drawn tie-heavy as well as
# wide), pops, peeks and discards — the operations ``drive_runs`` and the
# multiplexer's shared queue make.  The model delivers in (time, seq) order
# by construction.
# ---------------------------------------------------------------------------

_deltas = st.one_of(
    st.integers(min_value=0, max_value=5).map(float),
    st.floats(min_value=0.0, max_value=1e9, allow_nan=False, allow_infinity=False),
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False, allow_infinity=False),
)
_scripts = st.lists(
    st.one_of(
        st.tuples(st.just("push"), st.integers(min_value=0, max_value=3), _deltas),
        st.tuples(st.sampled_from(["pop", "peek", "discard"]), st.none(), st.none()),
    ),
    max_size=200,
)


@settings(max_examples=300, deadline=None)
@given(script=_scripts)
def test_queue_matches_a_sorted_list_model(script):
    q = EventQueue()
    model: list[tuple[float, int, object]] = []
    clock = 0.0
    seqs = itertools.count()
    delivered: dict[int, list[tuple[float, int]]] = {s: [] for s in range(4)}

    def take(event):
        time, seq, payload = model.pop(0)
        assert (event.time, event.seq) == (time, seq)
        assert event.payload is payload

    for op, study, delta in script:
        if op == "push":
            # Push relative to the clock so scripts stay valid after pops.
            t = clock + delta
            payload = (study, object())
            event = q.push(t, "job_finished", payload)
            seq = next(seqs)
            assert (event.time, event.seq) == (t, seq)
            bisect.insort(model, (t, seq, payload), key=lambda entry: entry[:2])
        elif op == "peek":
            head = q.peek()
            if not model:
                assert head is None
            else:
                assert (head.time, head.seq) == model[0][:2]
                assert head.payload is model[0][2]
        elif not model:
            with pytest.raises(IndexError):
                q.pop() if op == "pop" else q.discard_next()
        elif op == "pop":
            event = q.pop()
            take(event)
            clock = event.time
            delivered[event.payload[0]].append((event.time, event.seq))
        else:
            take(q.peek())
            q.discard_next()
        assert q.clock == clock
        assert len(q) == len(model)
        assert bool(q) == bool(model)
    while model:
        event = q.pop()
        take(event)
        delivered[event.payload[0]].append((event.time, event.seq))
    assert not q
    # Each study's projection of the shared stream is itself FIFO: a study
    # multiplexed with others sees its own events in solo order.
    for stream in delivered.values():
        assert stream == sorted(stream)
