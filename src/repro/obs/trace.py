"""Structured trace spans for publish/query pipelines.

Every traced operation produces a *span tree* — ``publish → dwt →
kmeans[level] → can_insert[level]``, ``query → translate →
sphere_filter[level] → score → contact_peers`` — where each span records
wall (or simulated) time, free-form attributes (per-level candidate /
pruned / surviving sphere counts, score distributions, …) and additive
counters (hops, bytes, messages) accumulated from the network fabric
while the span is open.

Tracing is **off by default**: the active recorder is a
:class:`NullRecorder` whose ``span()`` hands back one shared no-op
context manager, so instrumented hot paths cost a single attribute check
(``runtime.current.tracer.enabled``) plus, at most, one no-op call per
operation. Enable it by putting a recorder in the run context
(:mod:`repro.runtime`)::

    rec = TraceRecorder()
    with run_context(tracer=rec):
        network.range_query(q, 0.1)
    rec.write_jsonl("trace.jsonl")
    print(rec.flame())

The recorder is single-threaded by design — the discrete-event simulator
runs one event at a time, so spans opened and closed inside one event
callback can never interleave with another event's spans.
"""

from __future__ import annotations

import json
import time
from typing import Callable


class Span:
    """One node of a trace tree.

    Attributes
    ----------
    name:
        Phase name; per-level phases carry the level in brackets
        (``kmeans[D_2]``).
    span_id / parent_id:
        Tree linkage; ``parent_id`` is ``None`` for roots. Ids increase
        in span *start* order, giving a deterministic total order even
        when a simulated clock stands still.
    depth:
        Nesting depth (0 for roots).
    start / end:
        Clock readings at open/close; ``end`` is ``None`` while open.
    attrs:
        Free-form annotations set by the instrumented code.
    counts:
        Additive counters (``hops``, ``bytes``, ``messages``, …)
        accumulated via :meth:`TraceRecorder.add` while the span — or any
        of its descendants — was the innermost open span.

    A recorder subclass hangs its own per-span fields on the span's
    ``__dict__`` (the flight recorder's trace id, sampling decision and
    frame counters), so there is one node class for every recorder.
    """

    __slots__ = (
        "name", "span_id", "parent_id", "depth", "start", "end",
        "attrs", "counts", "__dict__",
    )

    def __init__(self, name, span_id, parent_id, depth, start, attrs):
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.depth = depth
        self.start = start
        self.end = None
        self.attrs = attrs
        self.counts: dict = {}

    def set(self, **attrs) -> None:
        """Attach (or overwrite) annotations on this span."""
        self.attrs.update(attrs)

    @property
    def duration(self) -> float:
        """Elapsed clock time (0.0 while the span is still open)."""
        return 0.0 if self.end is None else self.end - self.start

    def to_record(self) -> dict:
        """JSON-safe flat representation (one JSONL line)."""
        return {
            "span": self.name,
            "id": self.span_id,
            "parent": self.parent_id,
            "depth": self.depth,
            "start": self.start,
            "end": self.end,
            "duration": self.duration,
            "attrs": dict(self.attrs),
            "counts": dict(self.counts),
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Span({self.name!r}, id={self.span_id}, depth={self.depth})"


class _SpanContext:
    """Context manager opening one span on enter, closing it on exit."""

    __slots__ = ("_recorder", "_name", "_attrs", "_span")

    def __init__(self, recorder, name, attrs):
        self._recorder = recorder
        self._name = name
        self._attrs = attrs

    def __enter__(self) -> Span:
        self._span = self._recorder._open(self._name, self._attrs)
        return self._span

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is not None:
            self._span.attrs.setdefault("error", exc_type.__name__)
        self._recorder._close(self._span)
        return False


class _NullSpan:
    """Shared do-nothing stand-in for a :class:`Span` when tracing is off."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def set(self, **attrs) -> None:
        """No-op."""


NULL_SPAN = _NullSpan()


class NullRecorder:
    """Recorder used when recording is off: every operation is a no-op.

    One null object fills both run-context slots (``tracer`` and
    ``flight``). ``span()`` returns the one shared :data:`NULL_SPAN`, so
    a disabled recorder allocates nothing per call.
    """

    enabled = False
    spans: tuple = ()

    def span(self, name: str, **attrs) -> _NullSpan:
        """Hand back the shared no-op span."""
        return NULL_SPAN

    def annotate(self, **attrs) -> None:
        """No-op."""

    def add(self, **counts) -> None:
        """No-op."""

    def record(self, kind, source, dest, size_bytes, **fate) -> None:
        """No-op."""

    def mark_retry(self, attempt: int) -> None:
        """No-op."""


NULL_RECORDER = NullRecorder()


class TraceRecorder:
    """Collects a forest of spans from instrumented pipeline code.

    Parameters
    ----------
    clock:
        Zero-argument callable for span timestamps. Defaults to
        ``time.perf_counter`` (real seconds, what ``repro profile``
        wants); pass ``lambda: scheduler.now`` to timestamp with the
        discrete-event simulator's virtual clock instead.
    """

    enabled = True

    def __init__(self, clock: Callable[[], float] | None = None):
        self.clock = clock if clock is not None else time.perf_counter
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._next_id = 1

    # -- recording ----------------------------------------------------------

    def span(self, name: str, **attrs) -> _SpanContext:
        """Open a child span of the innermost open span (``with`` it)."""
        return _SpanContext(self, name, attrs)

    def _open(self, name: str, attrs: dict) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(  # positional: this is every instrumented call's cost
            name,
            self._next_id,
            None if parent is None else parent.span_id,
            len(self._stack),
            self.clock(),
            attrs,
        )
        self._next_id += 1
        self._stack.append(span)
        self._opened(span, parent)
        return span

    def _opened(self, span: Span, parent: Span | None) -> None:
        """Keep a just-opened span; subclasses add their own fields."""
        self.spans.append(span)

    def _close(self, span: Span) -> None:
        while self._stack:
            top = self._stack.pop()
            if top is span:
                break
        span.end = self.clock()

    def annotate(self, **attrs) -> None:
        """Attach annotations to the innermost open span (if any)."""
        if self._stack:
            self._stack[-1].attrs.update(attrs)

    def add(self, **counts) -> None:
        """Accumulate additive counters onto every open span.

        Adding to the whole open stack means each span's ``counts``
        naturally include its descendants' traffic — per-phase bytes and
        hops come for free.
        """
        for span in self._stack:
            bucket = span.counts
            for key, value in counts.items():
                bucket[key] = bucket.get(key, 0) + value

    @property
    def current(self) -> Span | None:
        """The innermost open span, if any."""
        return self._stack[-1] if self._stack else None

    @property
    def open_depth(self) -> int:
        """How many spans are currently open."""
        return len(self._stack)

    # -- export -------------------------------------------------------------

    def to_records(self) -> list[dict]:
        """All spans as JSON-safe dicts, in start order."""
        return [span.to_record() for span in self.spans]

    def dumps_jsonl(self) -> str:
        """The whole trace as JSON Lines text."""
        return "\n".join(
            json.dumps(record, sort_keys=True) for record in self.to_records()
        )

    def write_jsonl(self, path) -> int:
        """Write one JSON object per record to ``path``; returns the count."""
        records = self.to_records()
        with open(path, "w") as handle:
            for record in records:
                handle.write(json.dumps(record, sort_keys=True) + "\n")
        return len(records)

    def flame(self, *, max_depth: int | None = None) -> str:
        """Human-readable aggregated flame summary (indent = depth)."""
        from repro.obs.profile import flame_summary

        return flame_summary(self.spans, max_depth=max_depth)


def read_jsonl(path) -> list[dict]:
    """Load the records of any recorder's :meth:`~TraceRecorder.write_jsonl`.

    A flight file mixes edge records with operation summaries; split
    them on ``record.get("record") == "op"``.
    """
    records = []
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records
