"""The store-backed overlay: everything the five backends share.

Hyper-M "works independently of the underlying overlay structure"
(paper contribution 1). What makes an overlay *this* overlay is small:
who owns a point, how a request reaches that owner, and which nodes a
sphere must be held by. Everything else is the same on CAN, the ring,
BATON, the VBI-tree and Kademlia, because all of them store entries as
rows of one shared :class:`repro.index.LevelStore` with per-node
memberships — so it lives here, once:

* construction, the member table and its accessors, ``grow``, and
  :meth:`StoreMaintenancePlane._admit` (store + member table + fabric);
* the data plane — :meth:`~StoreMaintenancePlane.insert_many` (which
  ``insert`` calls with one row), :meth:`~StoreMaintenancePlane.lookup`
  and :meth:`~StoreMaintenancePlane.extend_replication` — written
  against three backend hooks: ``_locate`` (route a point to its owner),
  ``_charge_route`` (pay for those hops: one
  :meth:`~repro.net.network.Network.transmit_path` for the chain) and
  ``_cover`` (the nodes a sphere must be held by);
* the delta pipeline's in-place maintenance —
  :meth:`~StoreMaintenancePlane.patch_entries` and
  :meth:`~StoreMaintenancePlane.retract_entries`: find the holders of
  the touched rows, send each one batched scalar ``PUBLISH_DELTA``
  traffic, and mutate the store once.

A backend adds ``join``/``leave``, the three hooks and its own
``range_query`` walk (a flood, per-target routes, a tree chain — these
genuinely differ). CAN alone also keeps its own ``insert_many`` and
``extend_replication``: its replicas spread hop by hop across abutting
zones, a different protocol from the direct owner-to-holder sends here,
and it routes and covers a whole batch with one zone-table pass.

Message sizing: a routed key is one vector message (plus radius and
payload scalars on ``INSERT``/``REPLICATE``); a delta is one
``PUBLISH_DELTA`` per holder, ``HEADER_BYTES`` plus three scalars per
patched sphere (entry id, new radius, new item count) or one scalar per
retracted entry id.
"""

from __future__ import annotations

import abc

import numpy as np

from repro import runtime
from repro.exceptions import ValidationError
from repro.index import LevelStore
from repro.net.messages import (
    BYTES_PER_SCALAR,
    HEADER_BYTES,
    MessageKind,
    vector_message_size,
)
from repro.net.network import Network
from repro.overlay.base import InsertReceipt, Overlay, RangeReceipt
from repro.overlay.storage import StoreBackedNode
from repro.utils.rng import ensure_rng
from repro.utils.validation import (
    check_matrix, check_positive, check_unit_cube, check_vector,
)


class StoreMaintenancePlane(Overlay):
    """An :class:`Overlay` over shared-store row memberships.

    Parameters
    ----------
    dimensionality:
        Dimensionality ``m`` of the key space (the unit cube).
    fabric:
        Shared :class:`repro.net.network.Network` for hop/energy
        accounting. Several overlays (Hyper-M runs one per wavelet
        level) can share one fabric so totals aggregate naturally.
    rng:
        Seed or generator driving the backend's random choices.
    node_id_offset:
        First node id to allocate — lets several overlays share a fabric
        without id collisions.
    """

    def __init__(
        self,
        dimensionality: int,
        *,
        fabric: Network | None = None,
        rng=None,
        node_id_offset: int = 0,
    ):
        if dimensionality < 1:
            raise ValidationError(
                f"dimensionality must be >= 1, got {dimensionality}"
            )
        self._dim = int(dimensionality)
        self.fabric = fabric if fabric is not None else Network()
        self._rng = ensure_rng(rng)
        self._nodes: dict[int, StoreBackedNode] = {}
        self._next_id = int(node_id_offset)
        #: The shared columnar index for this overlay (one per level).
        self.level_store = LevelStore(self._dim)

    # -- members ---------------------------------------------------------------

    @property
    def dimensionality(self) -> int:
        """Dimensionality of the key space."""
        return self._dim

    @property
    def node_ids(self) -> list[int]:
        """Ids of all member nodes."""
        return list(self._nodes)

    def node(self, node_id: int):
        """Look up a member node."""
        try:
            return self._nodes[node_id]
        except KeyError:
            raise ValidationError(
                f"unknown {type(self).__name__} node {node_id}"
            ) from None

    def __len__(self) -> int:
        return len(self._nodes)

    def loads(self) -> dict[int, int]:
        """Stored-entry count per node (Figure 9's distribution metric)."""
        return {node_id: node.load for node_id, node in self._nodes.items()}

    def grow(self, n_nodes: int) -> list[int]:
        """Add ``n_nodes`` nodes (bootstrapping if empty); returns their ids."""
        if n_nodes < 1:
            raise ValidationError(f"n_nodes must be >= 1, got {n_nodes}")
        return [self.join() for __ in range(n_nodes)]

    def _admit(self, node: StoreBackedNode) -> None:
        """Make ``node`` a member: shared store, member table, fabric."""
        node.attach_store(self.level_store)
        self._nodes[node.node_id] = node
        self.fabric.register(node)

    # -- what a backend implements -----------------------------------------------

    @abc.abstractmethod
    def join(self) -> int:
        """Add one node under the backend's join protocol; returns its id."""

    @abc.abstractmethod
    def leave(self, node_id: int) -> None:
        """Remove ``node_id`` gracefully; its rows go to their new holders."""

    @abc.abstractmethod
    def _locate(self, origin: int, point: np.ndarray) -> tuple[int, list[int]]:
        """Route from ``origin`` to the owner of the unit-cube ``point``.

        Returns ``(owner_id, hops)``: ``hops`` are the node ids that each
        receive one message on the way, the owner last (empty when
        ``origin`` owns the point).
        """

    def _charge_route(
        self, origin: int, hops: list[int], kind: MessageKind, size: int
    ) -> None:
        """Pay for one :meth:`_locate` route: each hop forwards to the next."""
        self.fabric.transmit_path(kind, origin, hops, size)

    @abc.abstractmethod
    def _cover(self, center: np.ndarray, radius: float):
        """Ids of the nodes that must hold a sphere centred in the cube.

        The backend's answer to Figure 6: every node a query meeting the
        sphere could be answered from. :meth:`extend_replication` sends
        replicas in iteration order, so a backend relying on it returns
        a deterministic sequence (CAN floods instead and returns a set).
        """

    # -- data plane ----------------------------------------------------------------

    def _check_inserts(self, keys, values, radii) -> tuple[np.ndarray, list]:
        """Validate one :meth:`insert_many` batch before any row moves."""
        keys = check_unit_cube(check_matrix(keys, "keys", dim=self._dim), "keys")
        radii = [check_positive(r, "radius", strict=False) for r in radii]
        if not len(keys) == len(values) == len(radii):
            raise ValidationError("keys, values and radii must align")
        return keys, radii

    def insert_many(self, origin: int, keys, values, radii) -> list[InsertReceipt]:
        """Publish ``n`` entries from node ``origin``, in row order.

        Each key is routed to its owner (one ``INSERT`` message per hop)
        and added to the shared level store as one row the owner holds.
        A sphere (``radius > 0``) is then replicated to the rest of its
        cover (paper Figure 6): one ``REPLICATE`` message each, the same
        row held again — replication is multi-membership, not copies.
        """
        keys, radii = self._check_inserts(keys, values, radii)
        size = vector_message_size(self._dim, scalars=2)
        receipts = []
        for key, value, radius in zip(keys, values, radii):
            owner_id, hops = self._locate(origin, key)
            self._charge_route(origin, hops, MessageKind.INSERT, size)
            row = self.level_store.add(key, radius, value)
            self.node(owner_id).add_row(row)
            replicas = (
                self.extend_replication(row, [owner_id]) if radius > 0.0 else []
            )
            receipt = InsertReceipt(
                owner=owner_id, routing_hops=len(hops), replicas=len(replicas)
            )
            self.fabric.finish_operation(MessageKind.INSERT, receipt.total_hops)
            receipts.append(receipt)
        return receipts

    def lookup(self, origin: int, key: np.ndarray) -> RangeReceipt:
        """Point query: entries at the owner of ``key`` whose spheres contain it."""
        key = check_unit_cube(check_vector(key, "key", dim=self._dim), "key")
        owner_id, hops = self._locate(origin, key)
        self._charge_route(
            origin, hops, MessageKind.LOOKUP, vector_message_size(self._dim)
        )
        rows = self.node(owner_id).rows_intersecting(key, 0.0)
        self.fabric.finish_operation(MessageKind.LOOKUP, len(hops))
        return RangeReceipt(
            entries=self.level_store.candidate_set(rows),
            routing_hops=len(hops),
            nodes_visited=[owner_id],
        )

    # -- in-place maintenance ----------------------------------------------------

    def extend_replication(self, row: int, holder_ids) -> list[int]:
        """Replicate ``row`` to the nodes of its cover not yet holding it.

        Recomputes the sphere's cover at its current radius and sends one
        ``REPLICATE`` message (key + radius + payload scalars, the
        insert-time size) from the lowest-id current holder to every
        covering node outside ``holder_ids``. Existing holders keep
        their copies untouched.
        """
        store = self.level_store
        holders = set(holder_ids)
        source = min(holders)
        size = vector_message_size(self._dim, scalars=2)
        added: list[int] = []
        for node_id in self._cover(
            np.clip(store.key_of(row), 0.0, 1.0), store.radius_of(row)
        ):
            if node_id in holders:
                continue
            self.fabric.transmit(source, node_id, MessageKind.REPLICATE, size)
            self.node(node_id).add_row(row)
            added.append(node_id)
        return added

    def patch_entries(
        self, origin: int, patches: list
    ) -> tuple[int, int]:
        """Update published entries in place from node ``origin``.

        ``patches`` is a list of ``(entry_id, radius, value)`` triples for
        *live* entries whose keys are unchanged (the delta pipeline only
        patches spheres whose centroid stayed put). Every node holding any
        patched row receives **one** batched ``PUBLISH_DELTA`` message
        carrying scalar fields only — entry id, new radius, new item
        count per sphere — so a patch costs a fraction of the key-vector
        traffic a tombstone + re-insert round would. Rows whose radius
        grew are then propagated to newly overlapped nodes via
        :meth:`extend_replication`.

        Returns ``(patch_hops, replica_hops)``.
        """
        if not patches:
            return (0, 0)
        with runtime.current.flight.operation("patch", origin=origin):
            store = self.level_store
            rows = [store.row_of(entry_id) for entry_id, __, __ in patches]
            row_set = set(rows)
            holders_by_row: dict[int, list[int]] = {row: [] for row in row_set}
            holder_counts: dict[int, int] = {}
            for node_id in self._nodes:
                membership = self.node(node_id).membership
                held = [row for row in row_set if row in membership]
                if not held:
                    continue
                holder_counts[node_id] = len(held)
                for row in held:
                    holders_by_row[row].append(node_id)
            patch_hops = 0
            for holder_id, count in holder_counts.items():
                if holder_id == origin:
                    continue  # patching a locally held row is free
                size = HEADER_BYTES + 3 * BYTES_PER_SCALAR * count
                self.fabric.transmit(
                    origin, holder_id, MessageKind.PUBLISH_DELTA, size
                )
                patch_hops += 1
            grown: list[int] = []
            for (entry_id, radius, value), row in zip(
                patches, rows, strict=True
            ):
                if float(radius) > store.radius_of(row):
                    grown.append(row)
                store.update_entry(entry_id, radius=radius, value=value)
            replica_hops = 0
            if grown:
                for row in grown:
                    added = self.extend_replication(
                        row, holders_by_row[row] or [origin]
                    )
                    replica_hops += len(added)
            self.fabric.finish_operation(
                MessageKind.PUBLISH_DELTA, patch_hops + replica_hops
            )
        return (patch_hops, replica_hops)

    def retract_entries(self, origin: int, entry_ids: list) -> int:
        """Remove published entries from node ``origin``; returns hops.

        The delta pipeline's removal plane: every node holding any doomed
        row gets one batched ``PUBLISH_DELTA`` message listing the entry
        ids to drop (scalar payload only), then the entries are removed
        everywhere through the store's tombstone machinery and the store
        compacts if past threshold.
        """
        if not entry_ids:
            return 0
        with runtime.current.flight.operation("retract", origin=origin):
            store = self.level_store
            rows = {
                store.row_of(entry_id)
                for entry_id in entry_ids
                if store.has_entry(entry_id)
            }
            hops = 0
            for node_id in self._nodes:
                membership = self.node(node_id).membership
                count = sum(1 for row in rows if row in membership)
                if count == 0 or node_id == origin:
                    continue
                size = HEADER_BYTES + BYTES_PER_SCALAR * count
                self.fabric.transmit(
                    origin, node_id, MessageKind.PUBLISH_DELTA, size
                )
                hops += 1
            for entry_id in entry_ids:
                store.remove_entry(entry_id)
            store.maybe_compact()
            self.fabric.finish_operation(MessageKind.PUBLISH_DELTA, hops)
        return hops
