"""Discrete-event core: a deterministic time-ordered event queue.

Both the cluster simulator and its tests are built on this tiny kernel.
Events at equal times are delivered in insertion order (a strict FIFO tie
break), which makes every simulation fully deterministic given its RNG —
a property the hypothesis suite checks.

:class:`EventQueue` is a calendar queue (bucketed by time) whose priority
structure is a min-heap of *integer* bucket ids plus a sorted "active"
bucket.  Heap sifting compares machine ints instead of calling
``SimEvent.__lt__`` per level, and most pushes land in a small bucket, so
churn stays cheap as worker counts grow.

Cross-bucket ordering is strict by construction (buckets partition the
time axis), so FIFO ties can only occur *within* a bucket, where events
are ordered by the ``(time, seq)`` key a plain binary heap of events would
use.  That heap — the original implementation — lives on as the oracle of
the hypothesis equivalence suite (``tests/backend/heap_event_queue.py``);
every seeded trace is byte-identical between the two.
"""

from __future__ import annotations

import heapq
import itertools
from bisect import insort
from typing import Any

from ..telemetry import runtime

__all__ = ["EventQueue", "SimEvent"]


class SimEvent:
    """One scheduled occurrence; ordering is (time, insertion sequence).

    A hand-rolled slotted class rather than ``@dataclass(order=True)``: the
    simulator pushes and pops one event per job lifecycle transition, so the
    generated-dataclass comparison (which builds a ``(time, seq)`` tuple per
    operand per comparison) showed up in heap sifting at 500-worker scale.
    Comparison semantics are unchanged: ``kind`` and ``payload`` never
    participate.
    """

    __slots__ = ("time", "seq", "kind", "payload")

    def __init__(self, time: float, seq: int, kind: str, payload: Any = None) -> None:
        self.time = time
        self.seq = seq
        self.kind = kind
        self.payload = payload

    def __lt__(self, other: "SimEvent") -> bool:
        if self.time != other.time:
            return self.time < other.time
        return self.seq < other.seq

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SimEvent):
            return NotImplemented
        return self.time == other.time and self.seq == other.seq

    def __hash__(self) -> int:
        # Defining __eq__ on a slotted class suppresses the inherited
        # __hash__; restore one over the same (time, seq) identity so
        # events can live in sets and dict keys (dead-event bookkeeping).
        return hash((self.time, self.seq))

    def __repr__(self) -> str:
        return (
            f"SimEvent(time={self.time!r}, seq={self.seq!r}, "
            f"kind={self.kind!r}, payload={self.payload!r})"
        )


class EventQueue:
    """A calendar queue of :class:`SimEvent` with a monotonic clock.

    Events are hashed into buckets of ``_width`` simulated seconds
    (``bucket id = int(time / width)``).  Pending bucket ids sit in a
    min-heap with lazy deletion; the earliest bucket is "activated" on
    demand — sorted once, then consumed through a position pointer.
    Pushes into the active bucket insert in order (they can only land at
    or after the pointer, because push times never precede the clock);
    pushes elsewhere are plain list appends.

    Bucket width adapts: whenever the queue doubles past the last resize
    threshold, the width is recomputed from the observed event span and
    every pending event is rehashed, so neither one giant bucket (width
    too coarse) nor per-op heap churn (width irrelevant) persists.

    The delivery order — globally sorted by ``(time, seq)`` — and the
    push/pop/peek/discard API are exactly those of a binary heap of events
    (the test suite's reference ``HeapEventQueue``).
    """

    def __init__(self, bucket_width: float = 1.0) -> None:
        if bucket_width <= 0:
            raise ValueError("bucket_width must be positive")
        self._seq = itertools.count()
        self.clock = 0.0
        self._size = 0
        self._width = float(bucket_width)
        self._buckets: dict[int, list[SimEvent]] = {}
        self._bucket_heap: list[int] = []
        self._active: list[SimEvent] = []
        self._active_pos = 0
        self._active_id: int | None = None
        self._next_resize = 64
        # None unless a runtime registry is installed (see
        # repro.telemetry.runtime): hot paths pay one attr load + branch.
        self._probes = runtime.probes("queue")
        runtime.watch(self, runtime.collect_queue)

    # -- internals ---------------------------------------------------------

    def _store(self, event: SimEvent) -> None:
        """File an event into the bucket map (never the active list)."""
        bid = int(event.time / self._width)
        bucket = self._buckets.get(bid)
        if bucket is None:
            self._buckets[bid] = [event]
            heapq.heappush(self._bucket_heap, bid)
        else:
            bucket.append(event)

    def _rebucket(self) -> None:
        """Re-hash every pending event under a width fit to the current span."""
        events = self._active[self._active_pos :]
        self._active = []
        self._active_pos = 0
        self._active_id = None
        for bucket in self._buckets.values():
            events.extend(bucket)
        self._buckets.clear()
        self._bucket_heap.clear()
        if len(events) >= 2:
            lo = min(e.time for e in events)
            hi = max(e.time for e in events)
            width = (hi - lo) / len(events)
            # Reject widths so small that bucket ids would overflow or
            # lose float precision; partitioning stays correct at any
            # positive width, so coarser is always safe.
            if width > 0.0 and hi / width < 1e15:
                self._width = width
        for event in events:
            self._store(event)
        if self._probes is not None:
            self._probes.resizes.inc()

    def _min_bid(self) -> int | None:
        """Smallest pending bucket id, dropping stale heap entries lazily."""
        heap = self._bucket_heap
        buckets = self._buckets
        while heap and heap[0] not in buckets:
            heapq.heappop(heap)
        return heap[0] if heap else None

    def _head(self) -> SimEvent | None:
        """The next event in delivery order, activating buckets as needed."""
        while True:
            if self._active_pos < len(self._active):
                mb = self._min_bid()
                active_id = self._active_id
                if mb is None or (active_id is not None and active_id <= mb):
                    return self._active[self._active_pos]
                # A push landed in a bucket *before* the active one (its
                # time is >= clock but hashes earlier): spill the active
                # remainder back and re-activate from the true minimum.
                rest = self._active[self._active_pos :]
                assert active_id is not None
                existing = self._buckets.get(active_id)
                if existing is None:
                    self._buckets[active_id] = rest
                    heapq.heappush(self._bucket_heap, active_id)
                else:
                    existing.extend(rest)
                self._active = []
                self._active_pos = 0
                self._active_id = None
                continue
            mb = self._min_bid()
            if mb is None:
                return None
            heapq.heappop(self._bucket_heap)
            bucket = self._buckets.pop(mb)
            bucket.sort()
            self._active = bucket
            self._active_pos = 0
            self._active_id = mb

    def _consume(self) -> None:
        """Step past the current head (which ``_head`` has materialised)."""
        self._size -= 1
        pos = self._active_pos + 1
        if pos >= len(self._active):
            self._active = []
            self._active_pos = 0
            self._active_id = None
        elif pos > 256 and pos * 2 >= len(self._active):
            del self._active[:pos]
            self._active_pos = 0
        else:
            self._active_pos = pos

    # -- public contract (mirrored by the tests' reference heap) ----------

    def push(self, time: float, kind: str, payload: Any = None) -> SimEvent:
        """Schedule an event; its time must not precede the current clock."""
        if time < self.clock:
            raise ValueError(f"cannot schedule event at {time} before clock {self.clock}")
        event = SimEvent(time=time, seq=next(self._seq), kind=kind, payload=payload)
        self._size += 1
        if self._probes is not None:
            self._probes.pushes.inc()
        if self._size >= self._next_resize:
            self._store(event)
            self._rebucket()
            self._next_resize = max(64, self._size * 2)
            return event
        bid = int(time / self._width)
        if bid == self._active_id and self._active_pos < len(self._active):
            # In-order insert past the consumed prefix: the new key
            # (time >= clock, fresh max seq) can never sort before it.
            insort(self._active, event, lo=self._active_pos)
        else:
            self._store(event)
        return event

    def pop(self) -> SimEvent:
        """Deliver the next event and advance the clock to its time."""
        event = self._head()
        if event is None:
            raise IndexError("pop from empty EventQueue")
        self._consume()
        self.clock = event.time
        if self._probes is not None:
            self._probes.pops.inc()
        return event

    def peek_time(self) -> float | None:
        """Time of the next event, or ``None`` if the queue is empty."""
        event = self._head()
        return event.time if event is not None else None

    def peek(self) -> SimEvent | None:
        """The next event without delivering it, or ``None`` if empty."""
        return self._head()

    def discard_next(self) -> None:
        """Drop the next event WITHOUT advancing the clock.

        For events known to be inert — e.g. a completion scheduled by a
        dispatch that was since killed — so that dead events neither stall
        the clock at their (possibly far-future) timestamps nor make the
        queue look like it still holds pending work.
        """
        if self._head() is None:
            raise IndexError("discard from empty EventQueue")
        self._consume()

    def __len__(self) -> int:
        return self._size

    def __bool__(self) -> bool:
        return self._size > 0
