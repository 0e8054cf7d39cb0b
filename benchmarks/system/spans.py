"""Span recording for the traced round of the system benchmark.

The benchmark measures every layer **from outside**: nothing under ``src/``
knows it is being timed.  A :class:`Tracer` wraps callables — methods of
subclasses handed to the layers' public constructors, or bound methods of
objects the benchmark was handed back — and records one span per call:
``(kind, start, end, parent, value)`` where ``kind`` names a
``(layer, name)`` pair, ``parent`` is the index of the span that was open
when this one started, and ``value`` is an optional per-call work count
(jobs returned, records appended).

Spans live in flat ``array`` columns for the whole round and are written to
``trace.jsonl`` only after measurement ends.  A layer's **self time** is its
spans' durations minus the durations of their direct children — so nested
layers (journal inside study inside the simulator loop) never double count
and the self times of all spans under a root sum to the root's duration.

What self time cannot exclude is the wrapper's own cost *outside* the
``[start, end]`` interval (argument packing, the ``finally``): that lands in
the parent span.  ``bench.trace_overhead_x`` reports how large it is.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Callable

import numpy as np

__all__ = ["KindStats", "Tracer", "self_times"]


def self_times(start: np.ndarray, end: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """Per-span self time: duration minus the durations of direct children.

    ``parent[i]`` is the index of span ``i``'s parent, or ``-1`` for a root.
    Children are strictly nested inside their parent (one thread, LIFO
    open/close), so subtracting direct children is exact.
    """
    duration = end - start
    has_parent = parent >= 0
    covered = np.bincount(
        parent[has_parent], weights=duration[has_parent], minlength=len(duration)
    )
    return duration - covered


@dataclass
class KindStats:
    """Aggregate of every span of one ``(layer, name)`` kind."""

    self_s: float = 0.0
    calls: int = 0
    #: Calls whose parent span belongs to a *different* layer — the layer's
    #: entry points, as opposed to its internal re-entrant calls (a default
    #: ``next_job_batch`` looping over ``next_job``).
    entry_calls: int = 0
    #: Sum of the per-call work counts, over all calls and over entry calls.
    value: int = 0
    entry_value: int = 0
    #: Entry calls whose work count was non-zero.
    entry_useful: int = 0


class Tracer:
    """Records spans around wrapped callables; single-threaded by design."""

    def __init__(self) -> None:
        #: kind id -> (layer, name)
        self.kinds: list[tuple[str, str]] = []
        self._kind_ids: dict[tuple[str, str], int] = {}
        self.kind = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.value = array("q")
        #: Index of the innermost open span (-1: none).
        self.current = -1

    def __len__(self) -> int:
        return len(self.kind)

    def kind_id(self, layer: str, name: str) -> int:
        key = (layer, name)
        kid = self._kind_ids.get(key)
        if kid is None:
            kid = self._kind_ids[key] = len(self.kinds)
            self.kinds.append(key)
        return kid

    # ------------------------------------------------------------ recording

    def wrap(
        self,
        fn: Callable[..., Any],
        layer: str,
        name: str,
        value: Callable[[Any, tuple], int] | None = None,
    ) -> Callable[..., Any]:
        """``fn`` with a span recorded around every call.

        ``value(result, args)`` — when given — is the call's work count
        (``args`` are the positional arguments as the wrapper received
        them); it only runs when ``fn`` returned normally.
        """
        kid = self.kind_id(layer, name)
        kinds, starts, ends = self.kind, self.start, self.end
        parents, values = self.parent, self.value
        clock = perf_counter

        if value is None:

            def traced(*args: Any, **kwargs: Any) -> Any:
                parent = self.current
                index = len(starts)
                self.current = index
                kinds.append(kid)
                parents.append(parent)
                values.append(0)
                ends.append(0.0)
                starts.append(clock())
                try:
                    return fn(*args, **kwargs)
                finally:
                    ends[index] = clock()
                    self.current = parent

        else:

            def traced(*args: Any, **kwargs: Any) -> Any:
                parent = self.current
                index = len(starts)
                self.current = index
                kinds.append(kid)
                parents.append(parent)
                values.append(0)
                ends.append(0.0)
                starts.append(clock())
                try:
                    result = fn(*args, **kwargs)
                    values[index] = value(result, args)
                    return result
                finally:
                    ends[index] = clock()
                    self.current = parent

        traced.traced_by = self  # type: ignore[attr-defined]
        return traced

    def span(self, layer: str, name: str) -> "_Span":
        """Context manager recording one span (for the benchmark's own calls)."""
        return _Span(self, self.kind_id(layer, name))

    def patch(
        self,
        obj: Any,
        attr: str,
        layer: str,
        name: str,
        value: Callable[[Any, tuple], int] | None = None,
    ) -> None:
        """Shadow ``obj.attr`` with a traced bound method (idempotent).

        For objects the benchmark does not construct itself — schedulers
        out of a factory, the objective, a hub's sinks — an instance
        attribute wins the lookup over the class's method, so every caller
        holding ``obj`` goes through the span while its type is unchanged.
        """
        bound = getattr(obj, attr)
        if getattr(bound, "traced_by", None) is self:
            return
        setattr(obj, attr, self.wrap(bound, layer, name, value))

    def subclass(
        self,
        base: type,
        layer: str,
        methods: dict[str, str | tuple[str, Callable[[Any, tuple], int]]],
    ) -> type:
        """A subclass of ``base`` whose listed methods record spans.

        ``methods`` maps a method name to its span name, or to
        ``(span name, value)`` with ``value(result, args)`` receiving the
        positional arguments *without* ``self``.  The subclass is what gets
        handed to a public constructor in place of ``base``.
        """
        namespace: dict[str, Any] = {}
        for attr, spec in methods.items():
            name, value = (spec, None) if isinstance(spec, str) else spec
            unbound = getattr(base, attr)
            if value is None:
                namespace[attr] = self.wrap(unbound, layer, name)
            else:
                namespace[attr] = self.wrap(
                    unbound, layer, name, lambda result, args, value=value: value(result, args[1:])
                )
        return type(f"Traced{base.__name__}", (base,), namespace)

    # ----------------------------------------------------------- derivation

    def summarize(self, lo: int = 0, hi: int | None = None) -> dict[tuple[str, str], KindStats]:
        """Aggregate spans ``lo <= index < hi`` per ``(layer, name)`` kind.

        A span whose parent lies before ``lo`` counts as a root of the range.
        """
        hi = len(self) if hi is None else hi
        kind = np.array(self.kind[lo:hi], dtype=np.int64)
        start = np.array(self.start[lo:hi], dtype=np.float64)
        end = np.array(self.end[lo:hi], dtype=np.float64)
        parent = np.maximum(np.array(self.parent[lo:hi], dtype=np.int64) - lo, -1)
        value = np.array(self.value[lo:hi], dtype=np.int64)
        if not len(kind):
            return {}
        n_kinds = len(self.kinds)
        own = self_times(start, end, parent)
        layer_names = sorted({layer for layer, _ in self.kinds})
        layer_of_kind = np.array([layer_names.index(layer) for layer, _ in self.kinds])
        span_layer = layer_of_kind[kind]
        parent_layer = np.where(parent >= 0, span_layer[np.maximum(parent, 0)], -1)
        entry = span_layer != parent_layer

        def per_kind(mask=None, weights=None) -> np.ndarray:
            if mask is None:
                return np.bincount(kind, weights=weights, minlength=n_kinds)
            picked = None if weights is None else weights[mask]
            return np.bincount(kind[mask], weights=picked, minlength=n_kinds)

        columns = (
            per_kind(weights=own),
            per_kind(),
            per_kind(entry),
            per_kind(weights=value),
            per_kind(entry, value),
            per_kind(entry & (value > 0)),
        )
        return {
            key: KindStats(
                self_s=float(columns[0][kid]),
                calls=int(columns[1][kid]),
                entry_calls=int(columns[2][kid]),
                value=int(columns[3][kid]),
                entry_value=int(columns[4][kid]),
                entry_useful=int(columns[5][kid]),
            )
            for kid, key in enumerate(self.kinds)
            if columns[1][kid]
        }

    def write_jsonl(self, path: str) -> None:
        """One ``{"name", "layer", "start", "end", "parent"}`` line per span.

        Times are seconds since the first span opened; ``parent`` is the
        0-based line index of the causing span (``-1`` for a root).
        """
        origin = self.start[0] if len(self.start) else 0.0
        heads = [
            f'{{"name":"{layer}.{name}","layer":"{layer}","start":' for layer, name in self.kinds
        ]
        kinds, starts, ends, parents = self.kind, self.start, self.end, self.parent
        with open(path, "w", encoding="utf-8") as fh:
            chunk: list[str] = []
            for i in range(len(kinds)):
                chunk.append(
                    "%s%.9f,\"end\":%.9f,\"parent\":%d}\n"
                    % (heads[kinds[i]], starts[i] - origin, ends[i] - origin, parents[i])
                )
                if len(chunk) >= 50_000:
                    fh.write("".join(chunk))
                    chunk.clear()
            fh.write("".join(chunk))


class _Span:
    __slots__ = ("tracer", "kid", "index", "outer")

    def __init__(self, tracer: Tracer, kid: int) -> None:
        self.tracer = tracer
        self.kid = kid

    def __enter__(self) -> "_Span":
        tracer = self.tracer
        self.outer = tracer.current
        self.index = len(tracer.start)
        tracer.current = self.index
        tracer.kind.append(self.kid)
        tracer.parent.append(self.outer)
        tracer.value.append(0)
        tracer.end.append(0.0)
        tracer.start.append(perf_counter())
        return self

    def __exit__(self, *exc: Any) -> None:
        tracer = self.tracer
        tracer.end[self.index] = perf_counter()
        tracer.current = self.outer
