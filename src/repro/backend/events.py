"""Discrete-event core: a deterministic time-ordered event queue.

Both the cluster simulator and its tests are built on this tiny kernel.
Events at equal times are delivered in insertion order (a strict FIFO tie
break), which makes every simulation fully deterministic given its RNG —
a property the hypothesis suite checks.

:class:`EventQueue` is a :mod:`heapq` of ``(time, seq, event)`` tuples.
``seq`` is unique, so the C tuple comparison orders by time and then by
insertion and never reaches the event itself.
"""

from __future__ import annotations

import itertools
from heapq import heappop, heappush
from typing import Any

from ..telemetry import runtime

__all__ = ["EventQueue", "SimEvent"]


class SimEvent:
    """One scheduled occurrence; delivered in ``(time, seq)`` order."""

    __slots__ = ("time", "seq", "kind", "payload")

    def __init__(self, time: float, seq: int, kind: str, payload: Any = None) -> None:
        self.time = time
        self.seq = seq
        self.kind = kind
        self.payload = payload

    def __repr__(self) -> str:
        return (
            f"SimEvent(time={self.time!r}, seq={self.seq!r}, "
            f"kind={self.kind!r}, payload={self.payload!r})"
        )


class EventQueue:
    """A binary heap of :class:`SimEvent` with a monotonic clock."""

    def __init__(self) -> None:
        self._seq = itertools.count()
        self._heap: list[tuple[float, int, SimEvent]] = []
        self.clock = 0.0
        # None unless a runtime registry is installed (see
        # repro.telemetry.runtime): hot paths pay one attr load + branch.
        self._probes = runtime.probes("queue")
        runtime.watch(self, runtime.collect_queue)

    def push(self, time: float, kind: str, payload: Any = None) -> SimEvent:
        """Schedule an event; its time must not precede the current clock.

        Checked before anything changes, and written so that NaN fails
        too: a NaN time would sort nowhere and stall the run.  ``+inf`` is
        a legal time (an event that is never due).
        """
        if not time >= self.clock:
            raise ValueError(f"cannot schedule event at {time} before clock {self.clock}")
        seq = next(self._seq)
        event = SimEvent(time, seq, kind, payload)
        heappush(self._heap, (time, seq, event))
        if self._probes is not None:
            self._probes.pushes.inc()
        return event

    def pop(self) -> SimEvent:
        """Deliver the next event and advance the clock to its time."""
        if not self._heap:
            raise IndexError("pop from empty EventQueue")
        event = heappop(self._heap)[2]
        self.clock = event.time
        if self._probes is not None:
            self._probes.pops.inc()
        return event

    def peek(self) -> SimEvent | None:
        """The next event without delivering it, or ``None`` if empty."""
        return self._heap[0][2] if self._heap else None

    def discard_next(self) -> None:
        """Drop the next event WITHOUT advancing the clock.

        For events known to be inert — e.g. a completion scheduled by a
        dispatch that was since killed — so that dead events neither stall
        the clock at their (possibly far-future) timestamps nor make the
        queue look like it still holds pending work.
        """
        if not self._heap:
            raise IndexError("discard from empty EventQueue")
        heappop(self._heap)

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)
