"""The frame ledger: the fabric's integer counters and their read-side views.

:class:`repro.net.network.Network` writes each frame exactly once: into
one :class:`OperationMetrics` row per message kind, and into the int64
columns of :class:`LoadLedger` at each endpoint's slot (a frame at a time,
or a bulk batch in array passes). Nothing else accumulates.
:class:`NetworkMetrics` (``fabric.metrics``) and :class:`LoadLedger`
(``fabric.load``, read out as :class:`NodeLoad` records) hold them;
:class:`repro.net.energy.EnergyLedger` (``fabric.energy``) prices the
same counters at read time. The fabric is the only writer.
"""

from __future__ import annotations

from collections import defaultdict, namedtuple
from collections.abc import Mapping
from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np

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


class NodeLoad(namedtuple("NodeLoad", (
    "msgs_in msgs_out bytes_in bytes_out retransmits duplicates drops "
    "query_hits tx_msgs_adjust tx_bytes_adjust rx_msgs_adjust rx_bytes_adjust"
), defaults=(0,) * 12)):
    """One node's counters, read off the ledger's columns.

    The first eight fields are the load view (:meth:`to_record`). Under a
    fault injector the load and the radio disagree by design — the load
    counts injected duplicates the radio is never billed for, and a
    dropped frame bills the receiver's radio without giving it a
    ``msgs_in`` — so the last four fields keep *radio-billed minus
    load-counted* frames and bytes per direction. They move only on a
    retransmitted, duplicated or dropped frame and are all zero on a
    clean fabric, where energy is priced from the load counters alone.
    """

    __slots__ = ()

    @property
    def bytes_total(self) -> int:
        """Bytes moved through this node's radio in either direction."""
        return self.bytes_in + self.bytes_out

    def to_record(self) -> dict:
        """JSON-safe flat counters (the eight load fields)."""
        return dict(zip(self._fields[:8], self))


#: Rows of :attr:`LoadLedger._cols`: the ``NodeLoad`` fields, then the
#: first-touch rank (0: untouched), the registered flag and the node id.
(
    MSGS_IN, MSGS_OUT, BYTES_IN, BYTES_OUT, RETRANSMITS, DUPLICATES, DROPS,
    QUERY_HITS, TX_MSGS_ADJUST, TX_BYTES_ADJUST, RX_MSGS_ADJUST,
    RX_BYTES_ADJUST, TOUCH, REGISTERED, NODE_ID,
) = range(15)


class LoadLedger:
    """Per-node traffic counters: int64 columns, one slot per node.

    A slot is assigned at registration (a block of ids in one vectorized
    step) or, for an id never registered, on first touch. ``_index`` lists
    the slotted ids ascending for the bulk write; ``_slot`` maps ids for
    the per-frame write, as ``~slot`` until known registered and touched.
    """

    __slots__ = ("_cols", "_views", "_io", "_size", "_touched", "_slot", "_index")

    def __init__(self) -> None:
        self._cols = np.zeros((15, 0), dtype=np.int64)
        self._views = self._io = ()
        self._size = self._touched = 0
        self._slot: dict[int, int] = {}
        self._index = (self._cols[NODE_ID], self._cols[NODE_ID])

    def _new_slots(self, ids: np.ndarray) -> np.ndarray:
        start, stop = self._size, self._size + ids.size
        if stop > self._cols.shape[1]:
            grown = max(stop, 2 * start, 64) - start
            self._cols = cols = np.pad(self._cols[:, :start], ((0, 0), (0, grown)))
            self._views = tuple(map(memoryview, cols))
            self._io = self._views[: BYTES_OUT + 1]
        self._cols[NODE_ID, start:stop] = ids
        self._size = stop
        return np.arange(start, stop)

    def _lookup(self, ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(slots, found)`` of ``ids``: one search of the sorted index."""
        if self._index[0].size != self._size:
            order = np.argsort(self._cols[NODE_ID, : self._size], kind="stable")
            self._index = (self._cols[NODE_ID, order], order)
        if not self._size:
            return np.zeros_like(ids), np.zeros(ids.shape, dtype=bool)
        index_ids, index_slots = self._index
        at = np.minimum(np.searchsorted(index_ids, ids), self._size - 1)
        return index_slots[at], index_ids[at] == ids

    def _slot_for(self, node_id: int, create: bool = False) -> int | None:
        """``node_id``'s slot, else a new one when ``create``, else ``None``."""
        slot = self._slot.get(node_id)
        if slot is None and self._size > len(self._slot):  # block ids unmapped
            slots, found = self._lookup(np.array([node_id]))
            slot = ~int(slots[0]) if found[0] else None
        if slot is None:
            if not create:
                return None
            slot = ~int(self._new_slots(np.array([node_id]))[0])
        self._slot.setdefault(node_id, slot)
        return slot if slot >= 0 else ~slot

    def _touch(self, slot: int) -> None:
        touch = self._views[TOUCH]
        if not touch[slot]:
            self._touched += 1
            touch[slot] = self._touched

    def _touch_many(self, slots: np.ndarray) -> None:
        """Rank the untouched ``slots``' first touches in their order."""
        touch = self._cols[TOUCH]
        new = slots[touch[slots] == 0]
        touch[new] = np.arange(self._touched + 1, self._touched + 1 + new.size)
        self._touched += new.size

    def note_query_hit(self, node_id: int, n: int = 1) -> None:
        """Mark ``node_id`` as visited by a range-query flood."""
        slot = self._slot_for(node_id, create=True)
        self._touch(slot)
        self._views[QUERY_HITS][slot] += n

    @property
    def per_node(self) -> Mapping[int, NodeLoad]:
        """Read-only ``{node_id: NodeLoad}`` of every touched node, in touch order."""
        touch = self._cols[TOUCH, : self._size]
        slots = np.argsort(touch, kind="stable")[self._size - self._touched :]
        return MappingProxyType(dict(zip(
            self._cols[NODE_ID, slots].tolist(),
            map(NodeLoad._make, self._cols[:TOUCH, slots].T.tolist()),
        )))

    def node_load(self, node_id: int) -> NodeLoad:
        """Counters for ``node_id`` (zeroed when never touched)."""
        slot = self._slot_for(node_id)
        return NodeLoad() if slot is None else NodeLoad._make(self._cols[:TOUCH, slot].tolist())

    def bytes_total(self, node_id: int) -> int:
        """Bytes ``node_id``'s radio has moved in either direction."""
        return self.node_load(node_id).bytes_total

    def least_loaded(self, node_id: int) -> tuple[int, int]:
        """Sort key: least-loaded first, node id as the tie-break."""
        return self.bytes_total(node_id), node_id

    def snapshot(self) -> dict:
        """Ledger-wide totals (per-node detail lives in the loadmap)."""
        totals = self._cols[:TOUCH, : self._size].sum(axis=1).tolist()
        return {
            "nodes": self._touched,
            "msgs": totals[MSGS_OUT],
            "bytes": totals[BYTES_OUT],
            "retransmits": totals[RETRANSMITS],
            "duplicates": totals[DUPLICATES],
            "drops": totals[DROPS],
            "query_hits": totals[QUERY_HITS],
        }
