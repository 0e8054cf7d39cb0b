"""The binary-heap event queue the calendar queue replaced, kept as its oracle.

``repro.backend.events.EventQueue`` was a min-heap of events until the
calendar queue took over the simulator's hot path.  Its contract is
indistinguishability from that heap, so the heap stays here, unchanged, for
``test_events_calendar.py`` to drive in lockstep.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any

from repro.backend.events import SimEvent


class HeapEventQueue:
    """A min-heap of :class:`SimEvent` with a monotonic clock.

    The pre-calendar implementation, retained as the behavioural oracle:
    the hypothesis equivalence suite drives it in lockstep with
    :class:`~repro.backend.events.EventQueue` and asserts identical delivery.
    """

    def __init__(self) -> None:
        self._heap: list[SimEvent] = []
        self._seq = itertools.count()
        self.clock = 0.0

    def push(self, time: float, kind: str, payload: Any = None) -> SimEvent:
        """Schedule an event; its time must not precede the current clock."""
        if time < self.clock:
            raise ValueError(f"cannot schedule event at {time} before clock {self.clock}")
        event = SimEvent(time=time, seq=next(self._seq), kind=kind, payload=payload)
        heapq.heappush(self._heap, event)
        return event

    def pop(self) -> SimEvent:
        """Deliver the next event and advance the clock to its time."""
        if not self._heap:
            raise IndexError("pop from empty EventQueue")
        event = heapq.heappop(self._heap)
        self.clock = event.time
        return event

    def peek_time(self) -> float | None:
        """Time of the next event, or ``None`` if the queue is empty."""
        return self._heap[0].time if self._heap else None

    def peek(self) -> SimEvent | None:
        """The next event without delivering it, or ``None`` if empty."""
        return self._heap[0] if self._heap else None

    def discard_next(self) -> None:
        """Drop the next event WITHOUT advancing the clock.

        For events known to be inert — e.g. a completion scheduled by a
        dispatch that was since killed — so that dead events neither stall
        the clock at their (possibly far-future) timestamps nor make the
        queue look like it still holds pending work.
        """
        if not self._heap:
            raise IndexError("discard from empty EventQueue")
        heapq.heappop(self._heap)

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)
