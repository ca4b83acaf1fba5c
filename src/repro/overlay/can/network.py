"""The CAN overlay network: joins, departures, inserts and its query flood."""

from __future__ import annotations

import numpy as np

from repro import runtime
from repro.exceptions import EmptyNetworkError, OverlayError, ValidationError
from repro.net.messages import (
    HEADER_BYTES,
    MessageKind,
    vector_message_size,
)
from repro.overlay.can.node import CANNode
from repro.overlay.can.routing import flood, route_to_owner
from repro.overlay.can.table import ZoneTable
from repro.overlay.can.zone import Zone
from repro.overlay.maintenance import StoreMaintenancePlane
from repro.utils.validation import check_unit_cube, check_vector


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

    def _locate(self, origin: int, point, route=None) -> tuple[int, list[int]]:
        """Greedy torus routing (with backtracking) to ``point``'s zone owner."""
        return route_to_owner(
            self, origin, point, penalty=self.route_penalty, keys=route
        )

    def _plan_inserts(self, keys: np.ndarray, radii: list):
        """Every row's routing keys and cover from one zone-table pass."""
        table = self.zone_table()
        return zip(table.routing_keys_many(keys), table.meeting_many(keys, radii))

    def _cover(self, center: np.ndarray, radius: float) -> set[int]:
        """Ids of the nodes with a zone meeting the (Euclidean) ball."""
        return self.zone_table().meeting(center, radius)

    def _spread(self, holder_ids, cover):
        """Flood from the holders over ``cover`` (convex, hence connected)."""
        return flood(self, holder_ids, cover)

    def _walk(
        self, origin: int, center: np.ndarray, radius: float, size: int
    ) -> tuple[list[int], int, int]:
        """Route to ``center``'s owner, then flood every zone the ball meets.

        The ball's region is convex, hence connected in the neighbour
        graph, so the breadth-first flood is complete.
        """
        owner_id, path = self._locate(origin, center)
        self._charge_route(origin, path, MessageKind.RANGE_QUERY, size)
        visited = [owner_id]
        for sender_id, neighbor_id in flood(
            self, [owner_id], self._cover(center, radius)
        ):
            self.fabric.transmit(
                sender_id, neighbor_id, MessageKind.RANGE_QUERY, size
            )
            visited.append(neighbor_id)
        return visited, len(path), len(visited) - 1

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
        self._hand_over(
            owner, new_node, new_node.intersects_sphere, owner.intersects_sphere
        )
        self._relink(owner, new_node)
        return node_id

    def _admit(self, node: CANNode) -> None:
        """Make ``node`` a member; its zones invalidate the zone table."""
        super()._admit(node)
        self._zone_table = None

    def _relink(self, owner: CANNode, new_node: CANNode) -> None:
        """Rebuild neighbour links after ``new_node`` split ``owner``'s region."""
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
        there. Rows overlapping the given half move by the join's rule,
        :meth:`_hand_over` (new holder first, so a row held only by the
        hot node is never transiently unreferenced). The
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
            moved, released = self._hand_over(
                hot, target, given.intersects_sphere, hot.intersects_sphere
            )
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

    #: CAN's own attribute, not only an inherited one, so the e2e
    #: benchmark harness can wrap CAN's inserts by name.
    insert = StoreMaintenancePlane.insert

    # -- the adaptation controller's surface -------------------------------------

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
        """Raise a hot row's replication degree by up to ``extra`` copies.

        The adaptation controller's hot-sphere action: neighbours of the
        current holders that do not yet hold the row adopt it,
        least-loaded first (LoadLedger byte totals, node id as the
        deterministic tie-break). Each new copy is one ``REPLICATE``
        message from an adjacent holder. Boosted copies are pure extras —
        queries dedup the shared row, so results are unchanged (Theorem
        4.1 set equality) — and they pre-position the row for radius
        growth and zone handoffs. Returns the new holder ids.
        """
        if extra < 1:
            return []
        size = vector_message_size(self._dim, scalars=2)
        holders = sorted(self._holders({row}))
        frontier: set[int] = set()
        for holder_id in holders:
            for neighbor_id in self.node(holder_id).neighbors:
                if neighbor_id not in holders:
                    frontier.add(neighbor_id)
        chosen = sorted(frontier, key=self.fabric.load.least_loaded)[:extra]
        added: list[int] = []
        for node_id in chosen:
            source = next(
                h for h in holders if node_id in self.node(h).neighbors
            )
            self.fabric.transmit(source, node_id, MessageKind.REPLICATE, size)
            if self.node(node_id).add_row(row):
                added.append(node_id)
        recorder = runtime.current.tracer
        if recorder.enabled and added:
            recorder.add(replica_hops=len(added))
        return added

    def shed_replication(self, row: int) -> list[int]:
        """Drop a cold row's *boosted* replicas; returns the shedding node ids.

        Only copies on nodes whose zones do **not** overlap the row's
        sphere are released — those are exactly the boosted extras (and
        stale holders left behind by zone rebalancing). Zone-overlapping
        holders are the inviolable baseline: a query ball meeting the
        sphere only inside one holder's zone must still find the row
        there, so shedding below that set would break Theorem 4.1 set
        equality. The owner zone contains the sphere's centre, so the
        refcount can never reach zero here.
        """
        store = self.level_store
        key = store.key_of(row)
        radius = store.radius_of(row)
        holders = sorted(self._holders({row}))
        doomed = [
            node_id
            for node_id in holders
            if not self.node(node_id).intersects_sphere(key, radius)
        ]
        if len(doomed) == len(holders) and doomed:
            # Degenerate float-boundary row overlapping no zone at all: keep
            # one holder so the entry is never tombstoned by adaptation.
            doomed = doomed[1:]
        for node_id in doomed:
            self.node(node_id).membership.discard(row)
        return doomed

    #: CAN's own attribute, like :attr:`insert`, so the e2e benchmark
    #: harness can wrap CAN's range queries by name.
    range_query = StoreMaintenancePlane.range_query

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
