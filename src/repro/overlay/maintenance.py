"""The store-backed overlay: the one overlay class every backend extends.

Hyper-M "works independently of the underlying overlay structure"
(paper contribution 1). What makes an overlay *this* overlay is small:
who owns a point, how a request reaches that owner, which nodes a
sphere must be held by, and which nodes a query ball is walked to.
Everything else is the same on CAN, BATON and the VBI-tree, because all
of them store entries as rows of one shared
:class:`repro.index.LevelStore` with per-node memberships — so it lives
here, once, in :class:`StoreMaintenancePlane`:

* construction, the member table and its accessors, ``grow``, and
  :meth:`StoreMaintenancePlane._admit` (store + member table + fabric);
* the data plane — :meth:`~StoreMaintenancePlane.insert_many` (which
  ``insert`` calls with one row), :meth:`~StoreMaintenancePlane.lookup`,
  :meth:`~StoreMaintenancePlane.range_query` and
  :meth:`~StoreMaintenancePlane.extend_replication` — written against
  three backend hooks: ``_locate`` (route a point to its owner, paid for
  by :meth:`~StoreMaintenancePlane._charge_route` as one
  :meth:`~repro.net.network.Network.transmit_path` for the chain),
  ``_cover`` (the nodes a sphere must be held by) and ``_walk`` (reach
  and charge every node a query ball is answered from). Each insert,
  look-up and range query is one flight-recorder operation, and a range
  query notes one query hit per visited node on the load ledger;
* the delta pipeline's in-place maintenance —
  :meth:`~StoreMaintenancePlane.patch_entries`,
  :meth:`~StoreMaintenancePlane.retract_entries` and
  :meth:`~StoreMaintenancePlane.withdraw_rows`: find the holders of the
  touched rows in one pass, send each one its traffic, and mutate the
  store once — rows leave a level only through
  :meth:`repro.index.LevelStore.remove_rows`.

A backend adds ``join``/``leave`` and the three hooks. CAN alone also
keeps its own ``insert_many`` and ``extend_replication``: its replicas
spread hop by hop across abutting zones, a different protocol from the
direct owner-to-holder sends here, and it routes and covers a whole
batch with one zone-table pass.

Message sizing: a routed key is one vector message (plus radius and
payload scalars on ``INSERT``/``REPLICATE``, one radius scalar on
``RANGE_QUERY``); a delta is one ``PUBLISH_DELTA`` per holder,
``HEADER_BYTES`` plus three scalars per patched sphere (entry id, new
radius, new item count) or one scalar per retracted entry id.
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
from repro.overlay.base import InsertReceipt, RangeReceipt
from repro.overlay.storage import StoreBackedNode
from repro.utils.rng import ensure_rng
from repro.utils.validation import (
    check_matrix, check_positive, check_unit_cube, check_vector,
)


class StoreMaintenancePlane(abc.ABC):
    """The overlay contract Hyper-M builds on, over shared-store rows.

    Insert a batch of (possibly sphere-shaped) keyed entries, find all
    entries intersecting a query sphere, and maintain published entries
    in place (patch live ones, retract dead ones, extend a grown
    sphere's replica set — what the delta publish pipeline,
    :meth:`HyperMNetwork.publish_delta`, runs on), with hop accounting
    throughout. Every published entry is a row of :attr:`level_store`;
    nodes hold row memberships into it.

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

    #: True when the overlay partitions the key space into geometric
    #: zones (CAN). Zoneless substrates (tree ranges) leave this False so
    #: ``build_loadmap`` reports an empty zone section instead of
    #: fabricating zero-volume rows.
    zone_geometry = False

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
        self.fabric.register(node.node_id)

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

    @abc.abstractmethod
    def _walk(
        self, origin: int, center: np.ndarray, radius: float, size: int
    ) -> tuple[list[int], int, int]:
        """Reach every node the query ball may be answered from.

        Charges the walk's ``RANGE_QUERY`` frames (``size`` bytes each)
        and returns ``(visited, routing_hops, flood_hops)``: the node ids
        in visit order, the hops spent reaching the first of them and the
        hops spent spreading from there.
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
            with runtime.current.flight.span("insert", origin=origin):
                owner_id, hops = self._locate(origin, key)
                self._charge_route(origin, hops, MessageKind.INSERT, size)
                row = self.level_store.add(key, radius, value)
                self.node(owner_id).add_row(row)
                replicas = (
                    self.extend_replication(row, [owner_id])
                    if radius > 0.0 else []
                )
                receipts.append(InsertReceipt(owner_id, len(hops), len(replicas)))
                self.fabric.finish_operation(
                    MessageKind.INSERT, receipts[-1].total_hops
                )
        return receipts

    def insert(
        self, origin: int, key: np.ndarray, value: object, *, radius: float = 0.0
    ) -> InsertReceipt:
        """Publish one entry from node ``origin``: a one-row :meth:`insert_many`."""
        return self.insert_many(origin, [key], [value], [radius])[0]

    def lookup(self, origin: int, key: np.ndarray) -> RangeReceipt:
        """Point query: entries at the owner of ``key`` whose spheres contain it."""
        with runtime.current.flight.span("lookup", origin=origin):
            key = check_unit_cube(check_vector(key, "key", dim=self._dim), "key")
            owner_id, hops = self._locate(origin, key)
            self._charge_route(
                origin, hops, MessageKind.LOOKUP, vector_message_size(self._dim)
            )
            rows = self.node(owner_id).membership.intersecting_rows(key, 0.0)
            self.fabric.finish_operation(MessageKind.LOOKUP, len(hops))
        return RangeReceipt(
            entries=self.level_store.candidate_set(rows),
            routing_hops=len(hops),
            nodes_visited=[owner_id],
        )

    def range_query(
        self, origin: int, center: np.ndarray, radius: float
    ) -> RangeReceipt:
        """All entries whose spheres intersect the query ball.

        The backend's :meth:`_walk` reaches (and charges) every node the
        ball may be answered from; one store-wide intersection pass then
        reduces each visited node to a boolean gather of its membership.
        Request hops are charged; response traffic is not modelled
        (results are evaluated by precision/recall, matching the paper).
        """
        center = check_vector(center, "center", dim=self._dim)
        check_positive(radius, "radius", strict=False)
        with runtime.current.flight.span(
            "range_query", origin=origin
        ) as flight_op:
            visited, routing_hops, flood_hops = self._walk(
                origin, center, radius, vector_message_size(self._dim, scalars=1)
            )
            mask = self.level_store.intersection_mask(center, radius)
            row_arrays = [
                self.node(node_id).membership.rows_matching(mask)
                for node_id in visited
            ]
            self.fabric.finish_operation(
                MessageKind.RANGE_QUERY, routing_hops + flood_hops
            )
            flight_op.set(zones_visited=len(visited))
        for node_id in visited:
            self.fabric.load.note_query_hit(node_id)
        recorder = runtime.current.tracer
        if recorder.enabled:
            recorder.add(flood_hops=flood_hops, zones_visited=len(visited))
        return RangeReceipt(
            entries=self.level_store.union_candidates(row_arrays),
            routing_hops=routing_hops,
            flood_hops=flood_hops,
            nodes_visited=visited,
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

    def _holders(self, rows: set[int]) -> dict[int, set[int]]:
        """Each node holding any of ``rows``, mapped to the rows it holds.

        Nodes come in member order, one set intersection each: the one
        holder pass :meth:`patch_entries`, :meth:`retract_entries` and
        :meth:`withdraw_rows` share.
        """
        holders = {}
        for node_id, node in self._nodes.items():
            held = node.membership.held_of(rows)
            if held:
                holders[node_id] = held
        return holders

    def _send_deltas(self, origin: int, holders: dict, scalars: int) -> int:
        """One batched ``PUBLISH_DELTA`` to each holder but ``origin``.

        Each carries ``scalars`` scalars per held row; returns the hops.
        """
        hops = 0
        for node_id, held in holders.items():
            if node_id != origin:  # a locally held row costs nothing
                size = HEADER_BYTES + scalars * BYTES_PER_SCALAR * len(held)
                self.fabric.transmit(
                    origin, node_id, MessageKind.PUBLISH_DELTA, size
                )
                hops += 1
        return hops

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
        with runtime.current.flight.span("patch", origin=origin):
            store = self.level_store
            rows = [store.row_of(entry_id) for entry_id, __, __ in patches]
            holders = self._holders(set(rows))
            patch_hops = self._send_deltas(origin, holders, 3)
            holders_by_row = _by_row(holders)
            grown: list[int] = []
            for (entry_id, radius, value), row in zip(
                patches, rows, strict=True
            ):
                if float(radius) > store.radius_of(row):
                    grown.append(row)
                store.update_entry(entry_id, radius=radius, value=value)
            replica_hops = sum(
                len(self.extend_replication(row, holders_by_row.get(row, [origin])))
                for row in grown
            )
            self.fabric.finish_operation(
                MessageKind.PUBLISH_DELTA, patch_hops + replica_hops
            )
        return (patch_hops, replica_hops)

    def retract_entries(self, origin: int, entry_ids: list) -> int:
        """Remove published entries from node ``origin``; returns hops.

        The delta pipeline's removal plane: every node holding any doomed
        row gets one batched ``PUBLISH_DELTA`` message listing the entry
        ids to drop (scalar payload only), then the rows leave the store
        in one :meth:`~repro.index.LevelStore.remove_rows` (tombstoned in
        ``entry_ids`` order) and the store compacts if past threshold.
        Ids that name no live entry are skipped; with none left the call
        costs nothing.
        """
        store = self.level_store
        rows = [store.row_of(eid) for eid in entry_ids if store.has_entry(eid)]
        if not rows:
            return 0
        with runtime.current.flight.span("retract", origin=origin):
            hops = self._send_deltas(origin, self._holders(set(rows)), 1)
            store.remove_rows(rows)
            store.maybe_compact()
            self.fabric.finish_operation(MessageKind.PUBLISH_DELTA, hops)
        return hops

    def withdraw_rows(self, rows, *, origin: int | None = None) -> int:
        """Drop ``rows`` from every holder; returns the holdings released.

        With ``origin`` the deletions are charged: each row's deletion
        retraces its replica path, one ``REPLICATE`` message (a key plus
        one scalar) from ``origin`` through each of its holders in member
        order. The rows then leave the store in one
        :meth:`~repro.index.LevelStore.remove_rows` and the store compacts
        if past threshold.
        """
        rows = [int(row) for row in rows]
        if not rows:
            return 0
        holders = self._holders(set(rows))
        if origin is not None:
            size = vector_message_size(self._dim, scalars=1)
            for chain in _by_row(holders).values():
                hops = chain[1:] if chain[0] == origin else chain
                self._charge_route(origin, hops, MessageKind.REPLICATE, size)
        self.level_store.remove_rows(rows)
        self.level_store.maybe_compact()
        return sum(len(held) for held in holders.values())


def _by_row(holders: dict[int, set[int]]) -> dict[int, list[int]]:
    """Invert a holder pass: each held row's holders, in member order.

    Rows come in first-seen order (member order, ascending within a node).
    """
    by_row: dict[int, list[int]] = {}
    for node_id, held in holders.items():
        for row in sorted(held):
            by_row.setdefault(row, []).append(node_id)
    return by_row
