"""Causal message tracing: a bounded flight recorder for routing trees.

Span traces (:mod:`repro.obs.trace`) answer *where time and traffic
went*; the flight recorder answers *which messages moved, in what causal
order, and what happened to each one*. :class:`FlightRecorder` is a
:class:`~repro.obs.trace.TraceRecorder`: every logical operation — a
publish, a routed insert, a range-query flood — is a span opened with
``span()``; every :meth:`repro.net.network.Network.transmit` inside it
records one :class:`HopEdge` per radio frame, tagged with the fate the
fault injector decided (``sent``, ``dropped``, ``retransmit``,
``duplicate``) and the retry attempt that produced it. Edges carry the
operation id, the root *trace id*, and a per-operation hop index, so any
operation can be reconstructed offline into the routing tree the message
actually traversed — drops and retries appear as tagged edges, never as
holes.

Recording is **off by default**: the run context's ``flight`` slot holds
the same :data:`~repro.obs.trace.NULL_RECORDER` as its ``tracer`` slot,
so the disabled hot path costs a single attribute check per transmit.
Enable it by putting a recorder in the run context
(:mod:`repro.runtime`)::

    rec = FlightRecorder()
    with run_context(flight=rec):
        network.publish_all()
        network.range_query(q, 0.1)
    rec.write_jsonl("flight.jsonl")
    tree = rec.routing_tree(rec.ops[-1].span_id)

The two slots hold two different trees: a trace span counts its
descendants' traffic, a flight operation only its own frames.

The edge buffer is a bounded ring (oldest edges evicted first) so
long-running simulations cannot grow without bound; per-operation
summary counters survive eviction. A ``sample`` rate below 1.0 records
only a seeded, deterministic subset of *root* operations (children
inherit the root's decision), which keeps overhead flat under heavy
load while preserving replayability.
"""

from __future__ import annotations

from collections import deque
from itertools import chain
from operator import attrgetter
from typing import Callable

import numpy as np

from repro.exceptions import ValidationError
from repro.obs.trace import Span, TraceRecorder

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


class FlightRecorder(TraceRecorder):
    """A span recorder whose spans are operations with hop edges.

    Operations open through the inherited :meth:`~TraceRecorder.span`;
    on top of a span each carries ``trace_id`` (its root's id),
    ``sampled`` (its root's sampling decision) and the counters
    :meth:`record` writes into the innermost operation only: ``hops``
    counts primary frames (``sent`` + ``dropped``), matching what
    :class:`~repro.net.metrics.NetworkMetrics` reports as per-kind hops;
    ``bytes`` their wire size; ``drops``, ``retransmits`` and
    ``duplicates`` the tagged-edge counts. The counters survive the
    eviction of the operation's edges. Finished operations are kept in
    ``ops`` (close order, bounded); ``spans`` stays empty.

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
            raise ValidationError(f"capacity must be >= 1, got {capacity}")
        if max_ops < 0:
            raise ValidationError(f"max_ops must be >= 0, got {max_ops}")
        if not 0.0 <= sample <= 1.0:
            raise ValidationError(f"sample must be in [0, 1], got {sample}")
        super().__init__(clock)
        self.capacity = int(capacity)
        self.max_ops = int(max_ops)
        self.sample = float(sample)
        self._rng = np.random.default_rng(seed)
        self.edges: deque[HopEdge] = deque(maxlen=self.capacity)
        self.ops: list[Span] = []
        self._recorded_edges = 0
        self.evicted_ops = 0
        self._orphan_seq = 0
        self._retry_attempt = 0

    # -- operations ---------------------------------------------------------

    def _opened(self, op: Span, parent: Span | None) -> None:
        if parent is None:
            op.trace_id = op.span_id
            op.sampled = self.sample >= 1.0 or self._rng.random() < self.sample
        else:
            op.trace_id = parent.trace_id
            op.sampled = parent.sampled
        op.hops = op.bytes = op.drops = op.retransmits = op.duplicates = 0

    def _close(self, op: Span) -> None:
        super()._close(op)
        self.ops.append(op)
        if len(self.ops) > self.max_ops:
            evict = len(self.ops) - self.max_ops
            del self.ops[:evict]
            self.evicted_ops += evict

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
    ) -> None:
        """Record one transmit: a primary edge plus tagged extras.

        ``status`` is the primary frame's fate (``sent`` or
        ``dropped``); ``retransmits`` link-layer re-sends and
        ``copies`` injected duplicates each add one tagged edge. The
        primary edge carries the frame's causal coordinates
        ``(trace_id, op_id, seq)``; an operation sampled out records
        nothing.
        """
        op = self._stack[-1] if self._stack else None
        attempt = self._retry_attempt or 1
        self._retry_attempt = 0
        extras = retransmits + copies
        if op is None:
            op_id = trace_id = None
            seq = self._orphan_seq
            self._orphan_seq += 1 + extras
        elif not op.sampled:
            return
        else:
            op_id, trace_id = op.span_id, op.trace_id
            # The hop index counts every frame the operation recorded.
            seq = op.hops + op.retransmits + op.duplicates
            op.hops += 1
            op.bytes += size_bytes
            if status == "dropped":
                op.drops += 1
            if extras:
                op.retransmits += retransmits
                op.duplicates += copies
        self._recorded_edges += 1 + extras
        self.edges.append(HopEdge(
            op_id, trace_id, seq, kind, source, dest, size_bytes,
            status, attempt, t,
        ))
        if extras:
            self.edges.extend(
                HopEdge(
                    op_id, trace_id, seq + offset, kind, source, dest,
                    size_bytes,
                    "retransmit" if offset <= retransmits else "duplicate",
                    attempt, t,
                )
                for offset in range(1, 1 + extras)
            )

    @property
    def evicted_edges(self) -> int:
        """Edges the ring has dropped, oldest first."""
        return self._recorded_edges - len(self.edges)

    # -- reconstruction -----------------------------------------------------

    def edges_for(self, op_id: int, *, subtree: bool = False) -> list[HopEdge]:
        """Edges of one operation (optionally including descendants')."""
        wanted = {op_id}
        if subtree:
            # Ids grow in open order and a child opens after its parent,
            # so one pass in id order reaches every descendant.
            ops = sorted(chain(self.ops, self._stack), key=attrgetter("span_id"))
            for op in ops:
                if op.parent_id in wanted:
                    wanted.add(op.span_id)
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
        """Finished operations as JSON-safe records (``"record": "op"``),
        in close order."""
        return [
            {
                "record": "op",
                "op": op.span_id,
                "trace": op.trace_id,
                "parent": op.parent_id,
                "kind": op.name,
                "start": op.start,
                "end": op.end,
                "hops": op.hops,
                "bytes": op.bytes,
                "drops": op.drops,
                "retransmits": op.retransmits,
                "duplicates": op.duplicates,
                "attrs": dict(op.attrs),
            }
            for op in self.ops
        ]

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
            slot = grouped.setdefault(op.name, {
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
        """Edge records then operation summaries, JSON-safe (what the
        inherited ``dumps_jsonl`` / ``write_jsonl`` export)."""
        return [e.to_record() for e in self.edges] + self.op_summaries()

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
