"""The CAN overlay network: joins, departures, inserts, lookups, queries."""

from __future__ import annotations

import numpy as np

from repro import runtime
from repro.exceptions import EmptyNetworkError, OverlayError, ValidationError
from repro.net.messages import (
    HEADER_BYTES,
    MessageKind,
    vector_message_size,
)
from repro.overlay.base import InsertReceipt, RangeReceipt
from repro.overlay.can.node import CANNode
from repro.overlay.can.routing import flood, route_to_owner
from repro.overlay.can.table import ZoneTable
from repro.overlay.can.zone import Zone
from repro.overlay.maintenance import StoreMaintenancePlane
from repro.utils.validation import check_positive, check_unit_cube, check_vector


class CANNetwork(StoreMaintenancePlane):
    """A CAN overlay over the simulated MANET fabric.

    Constructor parameters are the shared ones of
    :class:`~repro.overlay.maintenance.StoreMaintenancePlane`; the key
    space is the unit cube read as a torus, and ``rng`` drives the random
    join points.

    Examples
    --------
    >>> can = CANNetwork(2, rng=0)
    >>> ids = can.grow(8)
    >>> receipt = can.insert(ids[0], [0.2, 0.7], "item")
    >>> can.lookup(ids[3], [0.2, 0.7]).entries.values()
    ['item']
    """

    #: CAN partitions the key space into geometric zones, so
    #: ``build_loadmap`` emits per-zone rows for it.
    zone_geometry = True

    def __init__(self, dimensionality, *, fabric=None, rng=None, node_id_offset=0):
        super().__init__(
            dimensionality,
            fabric=fabric,
            rng=rng,
            node_id_offset=node_id_offset,
        )
        #: Every zone as array rows (see :meth:`zone_table`); ``None``
        #: until first asked for and again after any topology mutation.
        self._zone_table: ZoneTable | None = None
        #: Optional ``node_id -> float`` quality penalty installed by the
        #: adaptation controller: routing and flooding prefer low-penalty
        #: nodes among otherwise-equal choices. ``None`` (the default)
        #: keeps the historical, adaptation-free behaviour bit-identical.
        self.route_penalty = None

    def zone_table(self) -> ZoneTable:
        """The current zones as one table, built on first use."""
        if self._zone_table is None:
            self._zone_table = ZoneTable(self._nodes)
        return self._zone_table

    # -- backend hooks ----------------------------------------------------------

    def _locate(self, origin: int, point: np.ndarray) -> tuple[int, list[int]]:
        """Greedy torus routing (with backtracking) to ``point``'s zone owner."""
        return route_to_owner(self, origin, point, penalty=self.route_penalty)

    def _cover(self, center: np.ndarray, radius: float) -> set[int]:
        """Ids of the nodes with a zone meeting the (Euclidean) ball."""
        return self.zone_table().meeting(center, radius)

    # -- membership -----------------------------------------------------------

    def join(self, point: np.ndarray | None = None) -> int:
        """Add one node owning the zone containing ``point`` (random default).

        The first node bootstraps the overlay and owns the whole cube.
        Later joins route to the owner of ``point`` (charged as JOIN
        traffic); a single-zone owner splits its zone along the longest
        side and gives away the half containing ``point``, while a
        multi-zone owner (after a pinwheel departure) hands over the whole
        zone containing ``point`` — the protocol's self-defragmentation.
        """
        node_id = self._next_id
        self._next_id += 1
        if not self._nodes:
            self._admit(CANNode(node_id, Zone.full(self._dim)))
            return node_id

        if point is None:
            point = self._rng.random(self._dim)
        point = check_unit_cube(
            check_vector(point, "point", dim=self._dim), "point"
        )
        entry_id = int(self._rng.choice(list(self._nodes)))
        with runtime.current.flight.span("join", node=node_id):
            owner_id, path = self._locate(entry_id, point)
            self._charge_route(
                entry_id, path, MessageKind.JOIN,
                vector_message_size(self._dim),
            )
            self.fabric.finish_operation(MessageKind.JOIN, len(path))

        owner = self.node(owner_id)
        if len(owner.zones) > 1:
            # Defragmentation: the newcomer adopts a whole zone.
            taken = next(z for z in owner.zones if z.contains(point))
            remaining = [z for z in owner.zones if z is not taken]
            new_node = CANNode(node_id, taken)
            owner.set_zones(remaining)
        else:
            lower, upper = owner.zone.split()
            if upper.contains(point):
                new_zone, owner_zone = upper, lower
            else:
                new_zone, owner_zone = lower, upper
            new_node = CANNode(node_id, new_zone)
            owner.set_zone(owner_zone)
        self._admit(new_node)
        self._handoff_state(owner, new_node)
        return node_id

    def _admit(self, node: CANNode) -> None:
        """Make ``node`` a member; its zones invalidate the zone table."""
        super()._admit(node)
        self._zone_table = None

    def _handoff_state(self, owner: CANNode, new_node: CANNode) -> None:
        """Redistribute entries and rebuild neighbour links after a join."""
        store = self.level_store
        moved: list[int] = []
        released: list[int] = []
        for row in owner.membership.rows():
            key = store.key_of(row)
            radius = store.radius_of(row)
            in_owner = owner.intersects_sphere(key, radius)
            in_new = new_node.intersects_sphere(key, radius)
            if in_new:
                moved.append(row)
            if not in_owner and in_new:
                released.append(row)
            # Rows intersecting neither zone (degenerate float boundary)
            # stay at the owner so nothing is silently lost.
        # New holder first, then release: a row held only by the owner must
        # never be transiently unreferenced (it would tombstone).
        new_node.absorb_rows(moved)
        owner.membership.discard_many(released)

        # Any neighbour of the new ownership regions was a neighbour of the
        # pre-join owner, so candidates are its old neighbours plus the pair.
        candidates = dict(owner.neighbors)
        for cand_id in candidates:
            cand = self.node(cand_id)
            cand.remove_neighbor(owner.node_id)
            owner.remove_neighbor(cand_id)
            for member in (owner, new_node):
                if member.is_neighbor_of(cand):
                    member.add_neighbor(cand_id, tuple(cand.zones))
                    cand.add_neighbor(member.node_id, tuple(member.zones))
        if owner.is_neighbor_of(new_node):
            owner.add_neighbor(new_node.node_id, tuple(new_node.zones))
            new_node.add_neighbor(owner.node_id, tuple(owner.zones))
        # Refresh the owner's (shrunk) zone snapshot at its neighbours.
        for neighbor_id in owner.neighbors:
            self.node(neighbor_id).add_neighbor(
                owner.node_id, tuple(owner.zones)
            )

    def leave(self, node_id: int) -> None:
        """Gracefully remove ``node_id``, handing its zones and entries over.

        Implements CAN's departure protocol:

        1. if a neighbour's zone merges with a leaving zone into a valid
           box, that neighbour absorbs it directly;
        2. otherwise the smallest mergeable *sibling pair* elsewhere in the
           partition collapses — one sibling's owner hands its zone to the
           other — and the freed node adopts the leaving node's zone;
        3. if no mergeable pair exists anywhere (a pinwheel partition), the
           smallest-volume neighbour takes the zone over *temporarily*,
           owning multiple zones until a future join defragments it — the
           behaviour the original CAN paper specifies.

        Neighbour tables are rebuilt afterwards.
        """
        leaving = self.node(node_id)
        del self._nodes[node_id]
        self._zone_table = None
        if not self._nodes:
            # Last node took the whole key space (and every entry) with it.
            leaving.membership.clear()
            self.level_store.maybe_compact()
            return

        for zone in leaving.zones:
            self._reassign_zone(zone, leaving)
        # Release only after every zone's new owner holds its rows; rows no
        # other node picked up are tombstoned here, exactly when the old
        # per-node lists would have dropped them.
        leaving.membership.clear()
        self.level_store.maybe_compact()
        self._rebuild_all_neighbors()

    def _reassign_zone(self, zone: Zone, leaving: CANNode) -> None:
        """Give one departing zone (and relevant rows) a new owner.

        Rows are *added* to the new owner's membership here; the leaver
        releases its whole membership once at the end of :meth:`leave`, so
        handed-over rows are never transiently unreferenced.
        """
        store = self.level_store
        rows = [
            row
            for row in leaving.membership.rows()
            if zone.intersects_sphere(store.key_of(row), store.radius_of(row))
        ]
        neighbors = [
            self._nodes[nid] for nid in leaving.neighbors if nid in self._nodes
        ]
        if not neighbors:  # isolated remainder: nearest node adopts it
            neighbors = list(self._nodes.values())

        # 1. direct merge with a single-zone neighbour.
        for neighbor in neighbors:
            if len(neighbor.zones) != 1:
                continue
            merged = zone.merge_with(neighbor.zones[0])
            if merged is not None:
                neighbor.set_zone(merged)
                neighbor.absorb_rows(rows)
                return
        # 2. collapse the smallest mergeable sibling pair elsewhere.
        pair = self._smallest_mergeable_pair()
        if pair is not None:
            keeper_id, mover_id, merged, keeper_zone, __mover_zone = pair
            keeper = self.node(keeper_id)
            mover = self.node(mover_id)
            # The keeper's mergeable zone grows into the merged box; the
            # mover (single-zone by construction) hands everything to the
            # keeper and adopts the departing zone.
            keeper.set_zones(
                self._replace_zone(keeper.zones, keeper_zone, merged)
            )
            keeper.absorb_rows(mover.membership.rows())
            mover.membership.clear()
            mover.set_zone(zone)
            mover.absorb_rows(rows)
            return
        # 3. pinwheel fallback: smallest neighbour handles the zone too.
        takeover = min(neighbors, key=lambda n: n.volume)
        takeover.set_zones(takeover.zones + [zone])
        takeover.absorb_rows(rows)

    @staticmethod
    def _replace_zone(zones: list[Zone], old: Zone, new: Zone) -> list[Zone]:
        return [new if z is old else z for z in zones]

    def _smallest_mergeable_pair(self):
        """Find the mergeable zone pair of least merged volume.

        Returns ``(keeper_id, mover_id, merged, keeper_zone, mover_zone)``
        — the keeper's zone absorbs the mover's — or ``None``. Only
        single-zone movers are considered so the mover can cleanly adopt
        the departing zone.
        """
        nodes = list(self._nodes.values())
        best = None
        for i, a in enumerate(nodes):
            for b in nodes[i + 1 :]:
                for za in a.zones:
                    for zb in b.zones:
                        merged = za.merge_with(zb)
                        if merged is None:
                            continue
                        if best is not None and merged.volume >= best[2].volume:
                            continue
                        # Prefer moving a single-zone node; keeper keeps
                        # the merged box in place of its own zone.
                        if len(b.zones) == 1:
                            best = (a.node_id, b.node_id, merged, za, zb)
                        elif len(a.zones) == 1:
                            best = (b.node_id, a.node_id, merged, zb, za)
        if best is None:
            return None
        return best

    def _rebuild_all_neighbors(self) -> None:
        """Recompute every neighbour table from zone geometry."""
        self._zone_table = None
        nodes = list(self._nodes.values())
        for node in nodes:
            node.neighbors = {}
        for i, a in enumerate(nodes):
            for b in nodes[i + 1 :]:
                if a.is_neighbor_of(b):
                    a.add_neighbor(b.node_id, tuple(b.zones))
                    b.add_neighbor(a.node_id, tuple(a.zones))

    def rebalance_zone(
        self, node_id: int, target_id: int | None = None, *, fraction: float = 0.5
    ) -> int | None:
        """Split a hot node's largest zone and hand one half to a neighbour.

        The adaptation controller's zone action (the GeoP2P idiom): when a
        node's traffic exceeds the controller's max-over-mean threshold,
        its largest zone is cut at ``fraction`` along its longest side and
        the half nearer ``target_id`` (default: the hot node's least-loaded
        neighbour by LoadLedger byte totals, node id as tie-break) moves
        there. Rows overlapping the given half are absorbed by the target
        *before* the hot node releases any — the same
        new-holder-first ordering as :meth:`_handoff_state`, so a row held
        only by the hot node is never transiently unreferenced. The
        transfer is charged as one batched ``REPLICATE`` message carrying
        the moved keys plus a header-sized zone-transfer control message,
        then every neighbour table is rebuilt from geometry.

        Returns the target node id, or ``None`` when no rebalance is
        possible (no neighbours, or the zone is too thin to split).
        """
        hot = self.node(node_id)
        zone = max(hot.zones, key=lambda z: (z.volume, tuple(z.lows)))
        if target_id is None:
            candidates = sorted(
                (nid for nid in hot.neighbors if nid in self._nodes),
                key=self.fabric.load.least_loaded,
            )
            if not candidates:
                return None
            target_id = candidates[0]
        if target_id == node_id:
            raise ValidationError("cannot rebalance a zone onto its own node")
        target = self.node(target_id)
        try:
            lower, upper = zone.split(fraction=fraction)
        except ValidationError:
            return None
        # The target adopts whichever half sits torus-closer to its own
        # territory (nearest of its zone centers — it may own several
        # after a pinwheel takeover), keeping the handed-over zone
        # adjacent to the rest of the target's zones when geometry allows.
        def _distance_to_target(half: Zone) -> float:
            return min(
                half.torus_distance_to(zone.center) for zone in target.zones
            )

        if _distance_to_target(upper) < _distance_to_target(lower):
            given, kept = upper, lower
        else:
            given, kept = lower, upper
        with runtime.current.flight.span(
            "rebalance", node=node_id, target=target_id
        ) as flight_op:
            hot.set_zones(self._replace_zone(hot.zones, zone, kept))
            target.set_zones(list(target.zones) + [given])
            store = self.level_store
            moved: list[int] = []
            released: list[int] = []
            for row in hot.membership.rows():
                key = store.key_of(row)
                radius = store.radius_of(row)
                if not given.intersects_sphere(key, radius):
                    continue
                moved.append(row)
                if not hot.intersects_sphere(key, radius):
                    released.append(row)
            # New holder first, then release (see _handoff_state).
            target.absorb_rows(moved)
            size = HEADER_BYTES
            if moved:
                size = vector_message_size(
                    self._dim * len(moved), scalars=2 * len(moved)
                )
            self.fabric.transmit(
                node_id, target_id, MessageKind.REPLICATE, size
            )
            self.fabric.transmit(
                node_id, target_id, MessageKind.JOIN, HEADER_BYTES
            )
            hot.membership.discard_many(released)
            self._rebuild_all_neighbors()
            self.fabric.finish_operation(MessageKind.REPLICATE, 2)
            flight_op.set(rows_moved=len(moved), rows_released=len(released))
        return target_id

    # -- data plane -------------------------------------------------------------

    def owner_of(self, point: np.ndarray) -> int:
        """Id of the node whose zone contains ``point`` (global-view scan)."""
        point = check_vector(point, "point", dim=self._dim)
        if not self._nodes:
            raise EmptyNetworkError("overlay has no nodes")
        for node_id, key in self.zone_table().routing_keys(point).items():
            if key < 0.0:
                return node_id
        raise OverlayError(f"no zone contains {point!r}; zones do not tile?")

    def insert_many(self, origin: int, keys, values, radii) -> list[InsertReceipt]:
        """Publish ``n`` entries from node ``origin``, in row order.

        Each key is routed to its owner (one INSERT message per hop) and
        stored there; a sphere (``radius > 0``) is then replicated to
        every node whose zone it overlaps (one REPLICATE hop per replica),
        per the paper's Figure 6 discussion. Inserts never change
        topology, so one zone-table pass gives every row's routing keys
        and cover up front.
        """
        from repro.overlay.can.replication import replicate_sphere

        keys, radii = self._check_inserts(keys, values, radii)
        table = self.zone_table()
        size = vector_message_size(self._dim, scalars=2)
        receipts = []
        for key, value, radius, route_keys, cover in zip(
            keys, values, radii,
            table.routing_keys_many(keys), table.meeting_many(keys, radii),
        ):
            with runtime.current.flight.span("insert", origin=origin):
                owner_id, path = route_to_owner(
                    self, origin, key, penalty=self.route_penalty, keys=route_keys
                )
                self._charge_route(origin, path, MessageKind.INSERT, size)
                row = self.level_store.add(key, radius, value)
                self.node(owner_id).add_row(row)
                replicas = (
                    replicate_sphere(self, owner_id, row, cover)
                    if radius > 0.0 else []
                )
                receipts.append(InsertReceipt(owner_id, len(path), len(replicas)))
                self.fabric.finish_operation(
                    MessageKind.INSERT, receipts[-1].total_hops
                )
        return receipts

    #: CAN's own attribute, not only an inherited one, so the e2e
    #: benchmark harness can wrap CAN's inserts by name.
    insert = StoreMaintenancePlane.insert

    # patch_entries / retract_entries come from StoreMaintenancePlane; the
    # geometry-specific hooks below complete the maintenance plane and
    # give the adaptation controller its surface (load snapshot, hot-owner
    # rebalance, replication boost/shed) by delegating to the CAN zone
    # machinery.

    def extend_replication(self, row: int, holder_ids) -> list[int]:
        """Grow ``row``'s replica set to newly overlapped zones."""
        from repro.overlay.can.replication import extend_replication

        return extend_replication(self, row, holder_ids)

    def load_snapshot(self) -> dict[int, int]:
        """Deterministic ``{node_id: total bytes moved}`` load map."""
        bytes_total = self.fabric.load.bytes_total
        return {node_id: bytes_total(node_id) for node_id in self.node_ids}

    def rebalance_hot(
        self, node_id: int, target_id: int | None = None
    ) -> int | None:
        """The controller's hot-owner action: :meth:`rebalance_zone`."""
        return self.rebalance_zone(node_id, target_id)

    def boost_replication(self, row: int, extra: int) -> list[int]:
        """Grant a hot row up to ``extra`` frontier replicas."""
        from repro.overlay.can.replication import boost_replication

        return boost_replication(self, row, extra)

    def shed_replication(self, row: int) -> list[int]:
        """Drop a cold row's boosted, zone-disjoint replicas."""
        from repro.overlay.can.replication import shed_replication

        return shed_replication(self, row)

    def lookup(self, origin: int, key: np.ndarray) -> RangeReceipt:
        """The shared point query, recorded as one flight operation."""
        with runtime.current.flight.span("lookup", origin=origin):
            return super().lookup(origin, key)

    def range_query(
        self, origin: int, center: np.ndarray, radius: float
    ) -> RangeReceipt:
        """All entries whose spheres intersect the query ball.

        Routes to the owner of ``center`` then floods breadth-first across
        every zone the (Euclidean) query ball intersects — that region is
        convex, hence connected in the neighbour graph, so flooding is
        complete. Request hops are charged; response traffic is not modelled
        (results are evaluated by precision/recall, matching the paper).
        """
        center = check_vector(center, "center", dim=self._dim)
        check_positive(radius, "radius", strict=False)
        with runtime.current.flight.span(
            "range_query", origin=origin
        ) as flight_op:
            owner_id, path = self._locate(origin, center)
            size = vector_message_size(self._dim, scalars=1)
            self._charge_route(origin, path, MessageKind.RANGE_QUERY, size)

            # One store-wide intersection pass per query; each visited node
            # then filters its membership with a boolean gather.
            mask = self.level_store.intersection_mask(center, radius)
            order = [owner_id]
            for sender_id, neighbor_id in flood(
                self, [owner_id], self._cover(center, radius)
            ):
                self.fabric.transmit(
                    sender_id, neighbor_id, MessageKind.RANGE_QUERY, size
                )
                order.append(neighbor_id)
            flood_hops = len(order) - 1
            row_arrays = [
                self.node(node_id).rows_matching(mask) for node_id in order
            ]
            self.fabric.finish_operation(
                MessageKind.RANGE_QUERY, len(path) + flood_hops
            )
            flight_op.set(zones_visited=len(order))
        for node_id in order:
            self.fabric.load.note_query_hit(node_id)
        recorder = runtime.current.tracer
        if recorder.enabled:
            recorder.add(
                flood_hops=flood_hops, zones_visited=len(order)
            )
        return RangeReceipt(
            entries=self.level_store.union_candidates(row_arrays),
            routing_hops=len(path),
            flood_hops=flood_hops,
            nodes_visited=order,
        )

    # -- introspection ----------------------------------------------------------

    def zones(self) -> dict[int, Zone]:
        """Zone per node (single-zone nodes; see :meth:`all_zones`)."""
        return {node_id: node.zone for node_id, node in self._nodes.items()}

    def all_zones(self) -> dict[int, tuple[Zone, ...]]:
        """Full zone set per node (multi-zone aware)."""
        return {
            node_id: tuple(node.zones)
            for node_id, node in self._nodes.items()
        }

    def total_zone_volume(self) -> float:
        """Sum of zone volumes — 1.0 exactly when zones tile the cube."""
        return sum(node.volume for node in self._nodes.values())
