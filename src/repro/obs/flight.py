"""Causal message tracing: a bounded flight recorder for routing trees.

Span traces (:mod:`repro.obs.trace`) answer *where time and traffic
went*; the flight recorder answers *which messages moved, in what causal
order, and what happened to each one*. Every logical operation — a
publish, a routed insert, a range-query flood — opens an
:class:`Operation`; every :meth:`repro.net.network.Network.transmit`
inside it records one :class:`HopEdge` per radio frame, tagged with the
fate the fault injector decided (``sent``, ``dropped``, ``retransmit``,
``duplicate``) and the retry attempt that produced it. Edges carry the
operation id, the root *trace id*, and a per-operation hop index, so any
operation can be reconstructed offline into the routing tree the message
actually traversed — drops and retries appear as tagged edges, never as
holes.

Recording is **off by default**: the active recorder is a
:class:`NullFlightRecorder` whose every operation is a no-op, so the
disabled hot path costs a single attribute check per transmit. Enable it
by putting a recorder in the run context (:mod:`repro.runtime`)::

    rec = FlightRecorder()
    with run_context(flight=rec):
        network.publish_all()
        network.range_query(q, 0.1)
    rec.write_jsonl("flight.jsonl")
    tree = rec.routing_tree(rec.ops[-1].op_id)

The edge buffer is a bounded ring (oldest edges evicted first) so
long-running simulations cannot grow without bound; per-operation
summary counters survive eviction. A ``sample`` rate below 1.0 records
only a seeded, deterministic subset of *root* operations (children
inherit the root's decision), which keeps overhead flat under heavy
load while preserving replayability.
"""

from __future__ import annotations

import json
import time
from typing import Callable

import numpy as np

#: Statuses a hop edge can carry. ``sent`` and ``dropped`` are *primary*
#: frames (what :class:`repro.net.metrics.NetworkMetrics` counts as
#: per-kind hops); ``retransmit`` and ``duplicate`` mirror the separate
#: metric buckets.
EDGE_STATUSES = ("sent", "dropped", "retransmit", "duplicate")

#: Default ring-buffer capacity (edges).
DEFAULT_CAPACITY = 200_000

#: Default bound on retained finished operations.
DEFAULT_MAX_OPS = 20_000


class HopEdge:
    """One radio frame between two overlay nodes.

    Attributes
    ----------
    op_id / trace_id:
        The innermost open operation and the root operation of its
        causal chain (``trace_id == op_id`` for root operations).
    seq:
        Hop index within the operation (0-based, in transmit order).
    kind:
        :class:`repro.net.messages.MessageKind` value string.
    source / dest:
        Fabric node ids.
    size_bytes:
        Wire size of the frame.
    status:
        One of :data:`EDGE_STATUSES`.
    attempt:
        Retry attempt that produced the frame (1 = first send); set by
        :func:`repro.faults.resilience.reliable_send` retries.
    t:
        Virtual (scheduler) time of the transmit.
    """

    __slots__ = (
        "op_id", "trace_id", "seq", "kind", "source", "dest",
        "size_bytes", "status", "attempt", "t",
    )

    def __init__(self, op_id, trace_id, seq, kind, source, dest,
                 size_bytes, status, attempt, t):
        self.op_id = op_id
        self.trace_id = trace_id
        self.seq = seq
        self.kind = kind
        self.source = source
        self.dest = dest
        self.size_bytes = size_bytes
        self.status = status
        self.attempt = attempt
        self.t = t

    def to_record(self) -> dict:
        """JSON-safe flat representation (one JSONL line)."""
        return {
            "op": self.op_id,
            "trace": self.trace_id,
            "seq": self.seq,
            "kind": self.kind,
            "source": self.source,
            "dest": self.dest,
            "bytes": self.size_bytes,
            "status": self.status,
            "attempt": self.attempt,
            "t": self.t,
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"HopEdge(op={self.op_id}, seq={self.seq}, {self.kind} "
            f"{self.source}->{self.dest}, {self.status})"
        )


class Operation:
    """One logical operation (a publish, an insert, a query flood).

    Summary counters are maintained as edges are recorded, so they stay
    correct even after the ring buffer evicts the operation's edges:
    ``hops`` counts primary frames (``sent`` + ``dropped``), matching
    what :class:`~repro.net.metrics.NetworkMetrics` reports as per-kind
    hops; ``drops``, ``retransmits`` and ``duplicates`` mirror the
    tagged-edge counts.
    """

    __slots__ = (
        "op_id", "trace_id", "parent_op", "kind", "attrs", "start", "end",
        "hops", "bytes", "drops", "retransmits", "duplicates", "sampled",
        "_next_seq",
    )

    def __init__(self, op_id, trace_id, parent_op, kind, attrs, start,
                 sampled):
        self.op_id = op_id
        self.trace_id = trace_id
        self.parent_op = parent_op
        self.kind = kind
        self.attrs = attrs
        self.start = start
        self.end = None
        self.hops = 0
        self.bytes = 0
        self.drops = 0
        self.retransmits = 0
        self.duplicates = 0
        self.sampled = sampled
        self._next_seq = 0

    def set(self, **attrs) -> None:
        """Attach (or overwrite) annotations on this operation."""
        self.attrs.update(attrs)

    def to_record(self) -> dict:
        """JSON-safe summary (one JSONL line, ``"record": "op"``)."""
        return {
            "record": "op",
            "op": self.op_id,
            "trace": self.trace_id,
            "parent": self.parent_op,
            "kind": self.kind,
            "start": self.start,
            "end": self.end,
            "hops": self.hops,
            "bytes": self.bytes,
            "drops": self.drops,
            "retransmits": self.retransmits,
            "duplicates": self.duplicates,
            "attrs": dict(self.attrs),
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Operation({self.kind!r}, id={self.op_id}, hops={self.hops})"
        )


class _OpContext:
    """Context manager opening one operation on enter, closing on exit."""

    __slots__ = ("_recorder", "_kind", "_attrs", "_op")

    def __init__(self, recorder, kind, attrs):
        self._recorder = recorder
        self._kind = kind
        self._attrs = attrs

    def __enter__(self) -> Operation:
        self._op = self._recorder._open(self._kind, self._attrs)
        return self._op

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is not None:
            self._op.attrs.setdefault("error", exc_type.__name__)
        self._recorder._close(self._op)
        return False


class _NullOperation:
    """Shared do-nothing stand-in for :class:`Operation` when disabled."""

    __slots__ = ()
    op_id = None
    trace_id = None
    hops = 0
    bytes = 0

    def __enter__(self) -> "_NullOperation":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def set(self, **attrs) -> None:
        """No-op."""


NULL_OPERATION = _NullOperation()


class NullFlightRecorder:
    """Recorder used when flight recording is off: every call is a no-op."""

    enabled = False
    edges: tuple = ()
    ops: tuple = ()

    def operation(self, kind: str, **attrs) -> _NullOperation:
        """Hand back the shared no-op operation."""
        return NULL_OPERATION

    def record(self, kind, source, dest, size_bytes, *, status="sent",
               copies=0, retransmits=0, t=0.0):
        """No-op; returns ``None`` (no trace context exists)."""
        return None

    def mark_retry(self, attempt: int) -> None:
        """No-op."""


NULL_FLIGHT_RECORDER = NullFlightRecorder()


class FlightRecorder:
    """Collects hop edges and operation summaries into bounded rings.

    Parameters
    ----------
    capacity:
        Maximum retained edges; the oldest are evicted first.
    max_ops:
        Maximum retained *finished* operations.
    clock:
        Zero-argument callable for operation open/close stamps (edges
        are stamped with the fabric's virtual clock by the caller).
        Defaults to ``time.perf_counter``; inject a fixed clock for
        byte-stable output.
    sample:
        Fraction of *root* operations recorded (children follow their
        root). 1.0 records everything.
    seed:
        Seed for the sampling draw — the same seed and workload sample
        the same operations.
    """

    enabled = True

    def __init__(
        self,
        *,
        capacity: int = DEFAULT_CAPACITY,
        max_ops: int = DEFAULT_MAX_OPS,
        clock: Callable[[], float] | None = None,
        sample: float = 1.0,
        seed: int = 0,
    ):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        if not 0.0 <= sample <= 1.0:
            raise ValueError(f"sample must be in [0, 1], got {sample}")
        self.capacity = int(capacity)
        self.max_ops = int(max_ops)
        self.clock = clock if clock is not None else time.perf_counter
        self.sample = float(sample)
        self._rng = np.random.default_rng(seed)
        self.edges: list[HopEdge] = []
        self.ops: list[Operation] = []
        self.evicted_edges = 0
        self.evicted_ops = 0
        self._stack: list[Operation] = []
        self._next_op_id = 1
        self._orphan_seq = 0
        self._retry_attempt = 0

    # -- operations ---------------------------------------------------------

    def operation(self, kind: str, **attrs) -> _OpContext:
        """Open a child operation of the innermost open one (``with`` it)."""
        return _OpContext(self, kind, attrs)

    def _open(self, kind: str, attrs: dict) -> Operation:
        parent = self._stack[-1] if self._stack else None
        if parent is None:
            sampled = (
                self.sample >= 1.0 or self._rng.random() < self.sample
            )
        else:
            sampled = parent.sampled
        op = Operation(
            op_id=self._next_op_id,
            trace_id=parent.trace_id if parent else self._next_op_id,
            parent_op=None if parent is None else parent.op_id,
            kind=kind,
            attrs=attrs,
            start=self.clock(),
            sampled=sampled,
        )
        self._next_op_id += 1
        self._stack.append(op)
        return op

    def _close(self, op: Operation) -> None:
        while self._stack:
            top = self._stack.pop()
            if top is op:
                break
        op.end = self.clock()
        self.ops.append(op)
        if len(self.ops) > self.max_ops:
            evict = len(self.ops) - self.max_ops
            del self.ops[:evict]
            self.evicted_ops += evict

    @property
    def current(self) -> Operation | None:
        """The innermost open operation, if any."""
        return self._stack[-1] if self._stack else None

    # -- recording ----------------------------------------------------------

    def mark_retry(self, attempt: int) -> None:
        """Tag the *next* recorded primary edge as retry ``attempt``.

        One-shot: consumed by the next :meth:`record` call. The
        simulator is single-threaded and
        :func:`repro.faults.resilience.reliable_send` transmits
        immediately after marking, so the pairing is exact.
        """
        self._retry_attempt = int(attempt)

    def record(
        self,
        kind: str,
        source: int,
        dest: int,
        size_bytes: int,
        *,
        status: str = "sent",
        copies: int = 0,
        retransmits: int = 0,
        t: float = 0.0,
    ):
        """Record one transmit: a primary edge plus tagged extras.

        ``status`` is the primary frame's fate (``sent`` or
        ``dropped``); ``retransmits`` link-layer re-sends and
        ``copies`` injected duplicates each add one tagged edge.
        Returns ``(trace_id, op_id, seq)`` of the primary edge — what
        the fabric stamps onto the :class:`repro.net.messages.Message`
        — or ``None`` when the operation was sampled out.
        """
        op = self._stack[-1] if self._stack else None
        attempt = self._retry_attempt or 1
        self._retry_attempt = 0
        if op is not None and not op.sampled:
            return None
        if op is None:
            op_id = trace_id = None
            seq = self._orphan_seq
            self._orphan_seq += 1 + retransmits + copies
        else:
            op_id, trace_id = op.op_id, op.trace_id
            seq = op._next_seq
            op._next_seq += 1 + retransmits + copies
            op.hops += 1
            op.bytes += size_bytes
            if status == "dropped":
                op.drops += 1
            op.retransmits += retransmits
            op.duplicates += copies
        self._append(HopEdge(
            op_id, trace_id, seq, kind, source, dest, size_bytes,
            status, attempt, t,
        ))
        for offset in range(retransmits):
            self._append(HopEdge(
                op_id, trace_id, seq + 1 + offset, kind, source, dest,
                size_bytes, "retransmit", attempt, t,
            ))
        for offset in range(copies):
            self._append(HopEdge(
                op_id, trace_id, seq + 1 + retransmits + offset, kind,
                source, dest, size_bytes, "duplicate", attempt, t,
            ))
        return (trace_id, op_id, seq)

    def _append(self, edge: HopEdge) -> None:
        self.edges.append(edge)
        if len(self.edges) > self.capacity:
            evict = len(self.edges) - self.capacity
            del self.edges[:evict]
            self.evicted_edges += evict

    # -- reconstruction -----------------------------------------------------

    def edges_for(self, op_id: int, *, subtree: bool = False) -> list[HopEdge]:
        """Edges of one operation (optionally including descendants')."""
        if not subtree:
            return [e for e in self.edges if e.op_id == op_id]
        wanted = {op_id}
        changed = True
        ops = list(self.ops) + self._stack
        while changed:
            changed = False
            for op in ops:
                if op.parent_op in wanted and op.op_id not in wanted:
                    wanted.add(op.op_id)
                    changed = True
        return [e for e in self.edges if e.op_id in wanted]

    def routing_tree(self, op_id: int, *, subtree: bool = True) -> dict:
        """Reconstruct one operation's routing tree from its edges.

        Returns ``{"op": op_id, "roots": [node, ...], "edges": N,
        "primary_edges": N, "dropped": N, "retransmits": N,
        "duplicates": N, "children": {node: [(dest, status), ...]}}``.
        Each *primary* edge (``sent``/``dropped``) hangs its destination
        under its source, in hop order — the tree a dissemination or
        flood actually traversed. Tagged ``retransmit``/``duplicate``
        edges annotate the same parent instead of adding tree nodes.
        """
        edges = self.edges_for(op_id, subtree=subtree)
        edges.sort(key=lambda e: (e.op_id, e.seq))
        children: dict[int, list] = {}
        seen: set[int] = set()
        roots: list[int] = []
        counts = {"sent": 0, "dropped": 0, "retransmit": 0, "duplicate": 0}
        for edge in edges:
            counts[edge.status] = counts.get(edge.status, 0) + 1
            if edge.source not in seen:
                seen.add(edge.source)
                roots.append(edge.source)
            if edge.status in ("sent", "dropped"):
                children.setdefault(edge.source, []).append(
                    (edge.dest, edge.status)
                )
                seen.add(edge.dest)
        return {
            "op": op_id,
            "roots": roots[:1],
            "edges": len(edges),
            "primary_edges": counts["sent"] + counts["dropped"],
            "dropped": counts["dropped"],
            "retransmits": counts["retransmit"],
            "duplicates": counts["duplicate"],
            "children": children,
        }

    # -- aggregation --------------------------------------------------------

    def op_summaries(self) -> list[dict]:
        """Finished operations as JSON-safe records, in close order."""
        return [op.to_record() for op in self.ops]

    def per_op_histograms(self) -> dict:
        """Per-kind hop/byte distributions across finished operations.

        Returns ``{kind: {"ops": N, "hops": {...}, "bytes": {...},
        "hop_counts": {hops: ops}}}`` where the inner summaries carry
        count/mean/min/max and ``hop_counts`` is an exact histogram of
        hops-per-operation (the quantity Figure 8 plots).
        """
        from repro.utils.stats import RunningStats

        grouped: dict[str, dict] = {}
        for op in self.ops:
            slot = grouped.setdefault(op.kind, {
                "ops": 0,
                "_hops": RunningStats(),
                "_bytes": RunningStats(),
                "hop_counts": {},
                "drops": 0,
                "retransmits": 0,
                "duplicates": 0,
            })
            slot["ops"] += 1
            slot["_hops"].add(float(op.hops))
            slot["_bytes"].add(float(op.bytes))
            slot["hop_counts"][op.hops] = (
                slot["hop_counts"].get(op.hops, 0) + 1
            )
            slot["drops"] += op.drops
            slot["retransmits"] += op.retransmits
            slot["duplicates"] += op.duplicates
        out: dict[str, dict] = {}
        for kind in sorted(grouped):
            slot = grouped[kind]
            hops, bytes_ = slot.pop("_hops"), slot.pop("_bytes")
            slot["hops"] = {
                "count": hops.count, "mean": hops.mean,
                "min": hops.min if hops.count else 0.0,
                "max": hops.max if hops.count else 0.0,
            }
            slot["bytes"] = {
                "count": bytes_.count, "mean": bytes_.mean,
                "min": bytes_.min if bytes_.count else 0.0,
                "max": bytes_.max if bytes_.count else 0.0,
            }
            slot["hop_counts"] = {
                str(k): slot["hop_counts"][k]
                for k in sorted(slot["hop_counts"])
            }
            out[kind] = slot
        return out

    # -- export -------------------------------------------------------------

    def to_records(self) -> list[dict]:
        """Edge records then operation summaries, JSON-safe."""
        return [e.to_record() for e in self.edges] + self.op_summaries()

    def dumps_jsonl(self) -> str:
        """The whole flight log as JSON Lines text."""
        return "\n".join(
            json.dumps(record, sort_keys=True)
            for record in self.to_records()
        )

    def write_jsonl(self, path) -> int:
        """Write one JSON object per edge/op to ``path``; returns count."""
        text = self.dumps_jsonl()
        with open(path, "w") as handle:
            if text:
                handle.write(text + "\n")
        return len(self.edges) + len(self.ops)

    def snapshot(self) -> dict:
        """Ring-buffer health summary for reports."""
        return {
            "edges": len(self.edges),
            "ops": len(self.ops),
            "evicted_edges": self.evicted_edges,
            "evicted_ops": self.evicted_ops,
            "capacity": self.capacity,
            "sample": self.sample,
        }


def read_flight_jsonl(path) -> tuple[list[dict], list[dict]]:
    """Load ``(edge_records, op_records)`` written by :meth:`write_jsonl`."""
    edges: list[dict] = []
    ops: list[dict] = []
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            record = json.loads(line)
            if record.get("record") == "op":
                ops.append(record)
            else:
                edges.append(record)
    return edges, ops
