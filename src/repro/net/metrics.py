"""The frame ledger: the fabric's integer counters and their read-side views.

:meth:`repro.net.network.Network.transmit` (and ``transmit_bulk``) write
each frame exactly once, into two tables of plain integers: one
:class:`OperationMetrics` row per message kind and one :class:`NodeLoad`
row per endpoint. Nothing else accumulates. :class:`NetworkMetrics`
(``fabric.metrics``) and :class:`LoadLedger` (``fabric.load``) hold the
tables and read them; :class:`repro.net.energy.EnergyLedger`
(``fabric.energy``) prices the same rows at read time. None of the three
has a write method for traffic — the fabric is the only writer.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field

from repro.net.messages import MessageKind
from repro.utils.stats import RunningStats


@dataclass
class OperationMetrics:
    """The per-kind row (insert, query, …).

    ``messages``/``hops``/``bytes`` count *primary* transmissions only —
    the per-kind totals the paper's Figure 8 benchmarks report. Traffic a
    fault injector adds on top goes into its own buckets: link-layer
    ``retransmits`` (with their bytes) and injected ``duplicates``, so
    lossy-fabric overhead never inflates the per-kind dissemination cost.
    """

    messages: int = 0
    hops: int = 0
    bytes: int = 0
    retransmits: int = 0
    retransmit_bytes: int = 0
    duplicates: int = 0
    per_op_hops: RunningStats = field(default_factory=RunningStats)


@dataclass
class NetworkMetrics:
    """Network-wide counters, split by message kind."""

    by_kind: dict[MessageKind, OperationMetrics] = field(
        default_factory=lambda: defaultdict(OperationMetrics)
    )

    def kind(self, kind: MessageKind) -> OperationMetrics:
        """Counters for ``kind`` (zeroed bucket when never used)."""
        return self.by_kind[kind]

    def finish_operation(self, kind: MessageKind, hops: int) -> None:
        """Record a completed logical operation of the given kind."""
        self.kind(kind).per_op_hops.add(float(hops))

    @property
    def total_messages(self) -> int:
        """All messages transmitted across kinds."""
        return sum(b.messages for b in self.by_kind.values())

    @property
    def total_hops(self) -> int:
        """All hops across kinds."""
        return sum(b.hops for b in self.by_kind.values())

    @property
    def total_bytes(self) -> int:
        """All bytes moved across kinds."""
        return sum(b.bytes for b in self.by_kind.values())

    @property
    def total_retransmits(self) -> int:
        """All fault-injected link retransmissions across kinds."""
        return sum(b.retransmits for b in self.by_kind.values())

    @property
    def total_duplicates(self) -> int:
        """All fault-injected duplicate deliveries across kinds."""
        return sum(b.duplicates for b in self.by_kind.values())

    def snapshot(self) -> dict[str, dict]:
        """Plain-dict summary for reports.

        Keys are sorted by kind name so two runs' snapshots diff cleanly
        regardless of which message kinds happened to be seen first. The
        fault-overhead buckets (``retransmits``/``retransmit_bytes``/
        ``duplicates``) appear only when nonzero, so clean-fabric
        snapshots stay byte-identical to the pre-fault code.
        """
        out: dict[str, dict] = {}
        for kind, b in sorted(
            self.by_kind.items(), key=lambda kv: kv[0].value
        ):
            row = {
                "messages": b.messages,
                "hops": b.hops,
                "bytes": b.bytes,
                "mean_hops_per_op": b.per_op_hops.mean,
                "ops": b.per_op_hops.count,
            }
            if b.retransmits:
                row["retransmits"] = b.retransmits
                row["retransmit_bytes"] = b.retransmit_bytes
            if b.duplicates:
                row["duplicates"] = b.duplicates
            out[kind.value] = row
        return out


class NodeLoad:
    """The per-node row: traffic counters for one fabric node.

    The first eight slots are the load view (:meth:`to_record`). Under a
    fault injector the load and the radio disagree by design — the load
    counts injected duplicates the radio is never billed for, and a
    dropped frame bills the receiver's radio without giving it a
    ``msgs_in`` — so the last four slots keep *radio-billed minus
    load-counted* frames and bytes per direction. They are touched only
    on a retransmitted, duplicated or dropped frame and are all zero on
    a clean fabric, where energy is priced from the load counters alone.
    """

    __slots__ = (
        "msgs_in", "msgs_out", "bytes_in", "bytes_out",
        "retransmits", "duplicates", "drops", "query_hits",
        "tx_msgs_adjust", "tx_bytes_adjust",
        "rx_msgs_adjust", "rx_bytes_adjust",
    )

    def __init__(self) -> None:
        self.msgs_in = self.msgs_out = self.bytes_in = self.bytes_out = 0
        self.retransmits = self.duplicates = self.drops = self.query_hits = 0
        self.tx_msgs_adjust = self.tx_bytes_adjust = 0
        self.rx_msgs_adjust = self.rx_bytes_adjust = 0

    @property
    def bytes_total(self) -> int:
        """Bytes moved through this node's radio in either direction."""
        return self.bytes_in + self.bytes_out

    def to_record(self) -> dict:
        """JSON-safe flat counters."""
        return {
            "msgs_in": self.msgs_in,
            "msgs_out": self.msgs_out,
            "bytes_in": self.bytes_in,
            "bytes_out": self.bytes_out,
            "retransmits": self.retransmits,
            "duplicates": self.duplicates,
            "drops": self.drops,
            "query_hits": self.query_hits,
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"NodeLoad(in={self.msgs_in}, out={self.msgs_out}, "
            f"bytes={self.bytes_total})"
        )


class LoadLedger:
    """Per-node traffic view over the rows the fabric writes.

    ``per_node[node_id]`` creates the zeroed row on first touch — that is
    how the fabric writes; readers go through :meth:`node_load` /
    :meth:`bytes_total`, which never create one.
    """

    __slots__ = ("per_node",)

    def __init__(self) -> None:
        self.per_node: dict[int, NodeLoad] = defaultdict(NodeLoad)

    def note_query_hit(self, node_id: int, n: int = 1) -> None:
        """Mark ``node_id`` as visited by a range-query flood."""
        self.per_node[node_id].query_hits += n

    def node_load(self, node_id: int) -> NodeLoad:
        """Counters for ``node_id`` (zeroed when never touched)."""
        return self.per_node.get(node_id) or NodeLoad()

    def bytes_total(self, node_id: int) -> int:
        """Bytes ``node_id``'s radio has moved in either direction."""
        row = self.per_node.get(node_id)
        return row.bytes_total if row is not None else 0

    def least_loaded(self, node_id: int) -> tuple[int, int]:
        """Sort key: least-loaded first, node id as the tie-break."""
        return self.bytes_total(node_id), node_id

    def snapshot(self) -> dict:
        """Ledger-wide totals (per-node detail lives in the loadmap)."""
        rows = self.per_node.values()
        return {
            "nodes": len(rows),
            "msgs": sum(r.msgs_out for r in rows),
            "bytes": sum(r.bytes_out for r in rows),
            "retransmits": sum(r.retransmits for r in rows),
            "duplicates": sum(r.duplicates for r in rows),
            "drops": sum(r.drops for r in rows),
            "query_hits": sum(r.query_hits for r in rows),
        }
