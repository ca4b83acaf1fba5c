"""Kademlia-style XOR DHT over Morton keys — the fifth overlay backend.

Unlike the other backends, Kademlia has no contiguous key partition:
each node draws a random id from the same ``B``-bit space as the Morton
codes (``B = m * bits_per_dim(m)``) and *owns* exactly the codes it is
XOR-closest to. Routing is Maymounkov–Mazières iterative lookup: the
origin keeps a shortlist of the closest known contacts and queries the
``LOOKUP_CONCURRENCY`` (α) closest unqueried ones per round, learning
each probe's k-bucket contacts, until the closest shortlist entries have
all been queried. Every probe is one charged overlay message.

Sphere-shaped entries and range queries reach the XOR metric the same
way they reach the ring and BATON: through the Morton covering intervals
of the sphere's bounding box. The owner set of a code interval is
computed *exactly* by a binary-trie recursion over the node ids (see
:meth:`KademliaNetwork._owners_of_range`) — XOR-closest ownership of a
dyadic cell is prefix-decomposable, so no per-code scan is needed — and
a sphere replicates to the union of its covering cells' owners, which
keeps Theorem 4.1 completeness: any point of a query/entry intersection
lies in a cell covered by *both* bounding boxes, so the cell's owner
holds the entry and is visited by the query.

The data plane is the shared one of
:class:`~repro.overlay.maintenance.StoreMaintenancePlane`; this module
supplies its hooks (``_locate`` = the iterative lookup, ``_cover`` = the
covering cells' owners, and a star-shaped ``_charge_route``: the origin
sends every probe itself), the range walk, and
:class:`~repro.overlay.base.AdaptationPlane` (XOR-nearest hot-owner
offload, load-ranked replication boost/shed).
"""

from __future__ import annotations

import numpy as np

from repro import runtime
from repro.exceptions import EmptyNetworkError, ValidationError
from repro.net.messages import (
    HEADER_BYTES,
    MessageKind,
    vector_message_size,
)
from repro.overlay.base import AdaptationPlane, RangeReceipt
from repro.overlay.maintenance import StoreMaintenancePlane
from repro.overlay.morton import (
    MortonNode,
    bits_per_dim,
    covering_intervals,
    morton_code,
)
from repro.utils.validation import check_positive, check_vector

#: Maximum contacts per k-bucket (Kademlia's ``k``).
K_BUCKET_SIZE = 20
#: Concurrent probes per iterative-lookup round (Kademlia's ``α``).
LOOKUP_CONCURRENCY = 3


class KademliaNetwork(StoreMaintenancePlane, AdaptationPlane):
    """A Kademlia XOR-metric DHT over the simulated MANET fabric.

    Parameters mirror the other backends: ``dimensionality`` is the key
    space's ``m``; ``fabric`` an optional shared
    :class:`repro.net.network.Network`; ``rng`` seeds both join ids and
    lookups; ``node_id_offset`` avoids id collisions when several
    overlays share one fabric.

    Examples
    --------
    >>> kad = KademliaNetwork(2, rng=0)
    >>> ids = kad.grow(8)
    >>> receipt = kad.insert(ids[0], [0.2, 0.7], "item")
    >>> kad.lookup(ids[3], [0.2, 0.7]).entries.values()
    ['item']
    """

    def __init__(self, dimensionality, *, fabric=None, rng=None, node_id_offset=0):
        super().__init__(
            dimensionality,
            fabric=fabric,
            rng=rng,
            node_id_offset=node_id_offset,
        )
        self._bits = bits_per_dim(self._dim)
        self._key_bits = self._dim * self._bits
        self._key_space = 1 << self._key_bits
        #: ``node_id -> B-bit Kademlia id`` (distinct across members).
        self._kad_ids: dict[int, int] = {}
        #: Per-node routing table: ``node_id -> [bucket 0 … bucket B-1]``,
        #: bucket ``i`` holding the XOR-closest ≤ k members whose distance
        #: has bit length ``i + 1``. Rebuilt from the global view on every
        #: membership change (simulator simplification: bucket *contents*
        #: follow the protocol, bucket *maintenance traffic* is not
        #: modelled, same as the other backends' link tables).
        self._buckets: dict[int, list[list[int]]] = {}
        self._contacts: dict[int, list[int]] = {}

    def kad_id(self, node_id: int) -> int:
        """The ``B``-bit Kademlia id of a member node."""
        self.node(node_id)
        return self._kad_ids[node_id]

    def buckets(self, node_id: int) -> list[list[int]]:
        """A node's k-buckets (lists of member ids, closest first)."""
        self.node(node_id)
        return [list(bucket) for bucket in self._buckets[node_id]]

    # -- membership -----------------------------------------------------------

    def join(self) -> int:
        """Add one node under a fresh random Kademlia id.

        A newcomer bootstraps through a random existing member: it looks
        its own id up (charged as JOIN traffic, one message per probe),
        which walks it into the buckets of the nodes nearest to it. It
        then adopts every stored row whose post-join target set includes
        it; copies left at previous owners are harmless over-replication
        (queries dedup shared rows).
        """
        node_id = self._next_id
        self._next_id += 1
        while True:
            kad = int(self._rng.integers(self._key_space))
            if kad not in self._kad_ids.values():
                break
        bootstrap = None
        if self._nodes:
            bootstrap = int(self._rng.choice(list(self._nodes)))
        node = MortonNode(node_id)
        self._admit(node)
        self._kad_ids[node_id] = kad
        self._rebuild_tables()
        if bootstrap is not None:
            __, probes = self._iterative_lookup(bootstrap, kad)
            self._charge_route(
                bootstrap, probes, MessageKind.JOIN,
                vector_message_size(self._dim),
            )
            self.fabric.finish_operation(MessageKind.JOIN, len(probes))
            for row in self._all_rows():
                if node_id in self._row_targets(row):
                    node.add_row(row)
        return node_id

    def leave(self, node_id: int) -> None:
        """Gracefully remove ``node_id``, handing its rows to new owners.

        Every row the leaver held is re-homed at its *post-departure*
        target set first (new-holder-first: a row held only by the
        leaver must never be transiently unreferenced), then the
        leaver's membership is released, the store compacts if past
        threshold, and every routing table is rebuilt.
        """
        leaving = self.node(node_id)
        del self._nodes[node_id]
        del self._kad_ids[node_id]
        self._buckets.pop(node_id, None)
        self._contacts.pop(node_id, None)
        if not self._nodes:
            # Last node took the whole key space (and every entry) with it.
            leaving.membership.clear()
            self.level_store.maybe_compact()
            return
        for row in leaving.membership.rows():
            for target in sorted(self._row_targets(row)):
                self.node(target).add_row(row)
        leaving.membership.clear()
        self.level_store.maybe_compact()
        self._rebuild_tables()

    def _rebuild_tables(self) -> None:
        """Recompute every node's k-buckets from the global member view."""
        for node_id, kad in self._kad_ids.items():
            buckets: list[list[int]] = [[] for __ in range(self._key_bits)]
            for other, other_kad in self._kad_ids.items():
                if other == node_id:
                    continue
                buckets[(kad ^ other_kad).bit_length() - 1].append(other)
            for bucket in buckets:
                bucket.sort(key=lambda o: (kad ^ self._kad_ids[o], o))
                del bucket[K_BUCKET_SIZE:]
            self._buckets[node_id] = buckets
            self._contacts[node_id] = [
                o for bucket in buckets for o in bucket
            ]

    # -- XOR-metric ownership ---------------------------------------------------

    def _owner_of_code(self, code: int) -> int:
        """The member XOR-closest to ``code`` (distances are distinct)."""
        if not self._kad_ids:
            raise EmptyNetworkError("overlay has no nodes")
        return min(
            self._kad_ids, key=lambda nid: (self._kad_ids[nid] ^ code, nid)
        )

    def _owners_of_range(self, lo: int, hi: int) -> set[int]:
        """Exact owner set of the code interval ``[lo, hi]`` (inclusive).

        Binary-trie recursion over the id space: at each depth the cell
        of codes sharing a prefix splits on the next bit, and a candidate
        whose id matches that bit is XOR-closer to *every* code in that
        half than any candidate whose id differs — so candidates filter
        by prefix. Cells fully inside the range switch to a pure
        candidate recursion (``free``): when both bit-sides are
        populated each serves its own half, and when one side is empty
        the other serves both halves identically, so one recursive call
        covers them.
        """
        if not self._kad_ids:
            raise EmptyNetworkError("overlay has no nodes")
        B = self._key_bits
        kad = self._kad_ids
        out: set[int] = set()

        def free(cands: list[int], depth: int) -> None:
            if len(cands) == 1:
                out.add(cands[0])
                return
            bit = B - 1 - depth
            c0 = [c for c in cands if not (kad[c] >> bit) & 1]
            c1 = [c for c in cands if (kad[c] >> bit) & 1]
            if c0 and c1:
                free(c0, depth + 1)
                free(c1, depth + 1)
            else:
                free(c0 or c1, depth + 1)

        def rec(prefix: int, depth: int, cands: list[int]) -> None:
            width = B - depth
            cell_lo = prefix << width
            cell_hi = cell_lo + (1 << width) - 1
            if cell_hi < lo or cell_lo > hi:
                return
            if len(cands) == 1:
                out.add(cands[0])
                return
            if lo <= cell_lo and cell_hi <= hi:
                free(cands, depth)
                return
            bit = B - 1 - depth
            c0 = [c for c in cands if not (kad[c] >> bit) & 1]
            c1 = [c for c in cands if (kad[c] >> bit) & 1]
            rec(prefix << 1, depth + 1, c0 or c1)
            rec((prefix << 1) | 1, depth + 1, c1 or c0)

        rec(0, 0, list(kad))
        return out

    def _cover(self, key: np.ndarray, radius: float) -> list[int]:
        """Owners of all Morton cells covering the sphere's bounding box."""
        lows = np.clip(key - radius, 0.0, 1.0)
        highs = np.clip(key + radius, 0.0, 1.0)
        owners: list[int] = []
        seen: set[int] = set()
        for lo_f, hi_f in covering_intervals(lows, highs, self._bits):
            # Covering-interval bounds are dyadic rationals with at most
            # B fractional bits, so scaling to code space is exact.
            lo_i = max(0, int(round(lo_f * self._key_space)))
            hi_i = min(
                self._key_space - 1, int(round(hi_f * self._key_space)) - 1
            )
            if hi_i < lo_i:
                continue
            for node_id in sorted(self._owners_of_range(lo_i, hi_i)):
                if node_id not in seen:
                    seen.add(node_id)
                    owners.append(node_id)
        return owners

    def _row_targets(self, row: int) -> set[int]:
        """The node ids required to hold ``row`` for query completeness."""
        store = self.level_store
        key = np.clip(store.key_of(row), 0.0, 1.0)
        radius = store.radius_of(row)
        targets = {self._owner_of_code(morton_code(key, self._bits))}
        if radius > 0.0:
            targets.update(self._cover(key, radius))
        return targets

    # -- iterative routing ------------------------------------------------------

    def _closest_contacts(self, node_id: int, code: int, k: int) -> list[int]:
        """``node_id``'s ≤ k known contacts XOR-closest to ``code``."""
        return sorted(
            self._contacts[node_id],
            key=lambda o: (self._kad_ids[o] ^ code, o),
        )[:k]

    def _iterative_lookup(
        self, origin: int, code: int
    ) -> tuple[int, list[int]]:
        """α-concurrent iterative lookup; returns ``(owner, probes)``.

        The origin drives the whole lookup: each round it queries the
        ``LOOKUP_CONCURRENCY`` closest unqueried shortlist members (one
        message each, appended to ``probes``) and merges their k-bucket
        answers into the shortlist, stopping when the ``k`` closest
        shortlist entries have all been queried. Because buckets keep
        only XOR-closest members, convergence to a local minimum is
        possible in tiny networks; a final global-view exactness check
        charges one extra probe and corrects the owner in that case, so
        routing is always exact while the detour still costs hops.
        """
        self.node(origin)

        def dist(node_id: int) -> tuple[int, int]:
            return (self._kad_ids[node_id] ^ code, node_id)

        shortlist: set[int] = {origin}
        shortlist.update(
            self._closest_contacts(origin, code, K_BUCKET_SIZE)
        )
        queried: set[int] = set()
        probes: list[int] = []
        while True:
            ranked = sorted(shortlist, key=dist)
            batch = [
                n for n in ranked[:K_BUCKET_SIZE] if n not in queried
            ][:LOOKUP_CONCURRENCY]
            if not batch:
                break
            for node_id in batch:
                queried.add(node_id)
                if node_id != origin:
                    probes.append(node_id)
                shortlist.update(
                    self._closest_contacts(node_id, code, K_BUCKET_SIZE)
                )
        owner = min(queried, key=dist)
        true_owner = self._owner_of_code(code)
        if owner != true_owner:
            probes.append(true_owner)
            owner = true_owner
        return owner, probes

    def _locate(self, origin: int, point: np.ndarray) -> tuple[int, list[int]]:
        """Iterative lookup of the XOR owner of ``point``'s Morton code."""
        return self._iterative_lookup(origin, morton_code(point, self._bits))

    def _charge_route(
        self, origin: int, hops: list[int], kind: MessageKind, size: int
    ) -> None:
        """A star, not a chain: the origin sends every probe itself."""
        for target in hops:
            self.fabric.transmit(origin, target, kind, size)

    # -- range walk --------------------------------------------------------------

    def range_query(
        self, origin: int, center: np.ndarray, radius: float
    ) -> RangeReceipt:
        """Entries intersecting the query ball, via its Morton cell cover.

        The origin iteratively looks up each covering cell's owner (the
        lookup targets the owner's own id, so it converges to the owner
        itself) and collects the rows matching one store-wide
        intersection pass.
        """
        center = check_vector(center, "center", dim=self._dim)
        check_positive(radius, "radius", strict=False)
        size = vector_message_size(self._dim, scalars=1)
        targets = self._cover(np.clip(center, 0.0, 1.0), radius)
        mask = self.level_store.intersection_mask(center, radius)
        row_arrays: list[np.ndarray] = []
        visited: list[int] = []
        routing_hops = 0
        for node_id in targets:
            __, probes = self._iterative_lookup(
                origin, self._kad_ids[node_id]
            )
            self._charge_route(
                origin, probes, MessageKind.RANGE_QUERY, size
            )
            routing_hops += len(probes)
            visited.append(node_id)
            row_arrays.append(self.node(node_id).rows_matching(mask))
        self.fabric.finish_operation(MessageKind.RANGE_QUERY, routing_hops)
        return RangeReceipt(
            entries=self.level_store.union_candidates(row_arrays),
            routing_hops=routing_hops,
            flood_hops=0,
            nodes_visited=visited,
        )

    # -- adaptation plane --------------------------------------------------------

    def rebalance_hot(
        self, node_id: int, target_id: int | None = None
    ) -> int | None:
        """Offload a hot node's rows onto its XOR-nearest peer.

        A DHT has no zone to split, so the hot-owner action is bulk
        replication: the XOR-nearest other member (or ``target_id``)
        adopts every row it does not already hold, charged as one
        batched ``REPLICATE`` plus a header-sized control message — the
        same shape as CAN's zone handoff. Ownership stays put (routing
        is id-determined), so no rows are released; the controller's
        routing penalty steers subsequent traffic toward the copy.
        """
        hot = self.node(node_id)
        if target_id is None:
            kad = self._kad_ids[node_id]
            candidates = sorted(
                (nid for nid in self._nodes if nid != node_id),
                key=lambda nid: (self._kad_ids[nid] ^ kad, nid),
            )
            if not candidates:
                return None
            target_id = candidates[0]
        if target_id == node_id:
            raise ValidationError("cannot rebalance a node onto itself")
        target = self.node(target_id)
        moved = [
            row for row in hot.membership.rows()
            if row not in target.membership
        ]
        with runtime.current.flight.span(
            "rebalance", node=node_id, target=target_id
        ) as flight_op:
            size = HEADER_BYTES
            if moved:
                size = vector_message_size(
                    self._dim * len(moved), scalars=2 * len(moved)
                )
            target.absorb_rows(moved)
            self.fabric.transmit(
                node_id, target_id, MessageKind.REPLICATE, size
            )
            self.fabric.transmit(
                node_id, target_id, MessageKind.JOIN, HEADER_BYTES
            )
            self.fabric.finish_operation(MessageKind.REPLICATE, 2)
            flight_op.set(rows_moved=len(moved), rows_released=0)
        return target_id

    def boost_replication(self, row: int, extra: int) -> list[int]:
        """Raise a hot row's replication degree by up to ``extra`` copies.

        Non-holders adopt the row least-loaded first (LoadLedger byte
        totals, node id as the deterministic tie-break); each copy is one
        ``REPLICATE`` message from the XOR-nearest current holder.
        """
        if extra < 1:
            return []
        store = self.level_store
        size = vector_message_size(
            store.key_of(row).shape[0], scalars=2
        )
        holders = sorted(
            nid for nid in self._nodes
            if row in self.node(nid).membership
        )
        if not holders:
            return []
        chosen = sorted(
            (nid for nid in self._nodes if nid not in holders),
            key=self.fabric.load.least_loaded,
        )[:extra]
        added: list[int] = []
        for node_id in chosen:
            kad = self._kad_ids[node_id]
            source = min(
                holders, key=lambda h: (self._kad_ids[h] ^ kad, h)
            )
            self.fabric.transmit(
                source, node_id, MessageKind.REPLICATE, size
            )
            if self.node(node_id).add_row(row):
                added.append(node_id)
        return added

    def shed_replication(self, row: int) -> list[int]:
        """Drop a cold row's boosted replicas; returns the shedding ids.

        Only copies on nodes outside the row's required target set (its
        XOR owner plus covering-cell owners) are released — exactly the
        boosted extras and churn leftovers. If the required set is
        somehow empty of holders, one holder is kept so adaptation never
        tombstones an entry.
        """
        holders = sorted(
            nid for nid in self._nodes
            if row in self.node(nid).membership
        )
        required = self._row_targets(row)
        doomed = [nid for nid in holders if nid not in required]
        if len(doomed) == len(holders) and doomed:
            doomed = doomed[1:]
        for node_id in doomed:
            self.node(node_id).membership.discard(row)
        return doomed

    # -- introspection -----------------------------------------------------------

    def _all_rows(self) -> list[int]:
        """Every live store row held by at least one member (sorted)."""
        rows: set[int] = set()
        for node in self._nodes.values():
            rows.update(node.membership.rows())
        return sorted(rows)
