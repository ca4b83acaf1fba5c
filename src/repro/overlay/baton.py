"""BATON: a BAlanced Tree Overlay Network [Jagadish, Ooi, Vu — VLDB 2005].

One of the overlays the paper explicitly names as a substrate for Hyper-M
("it could be implemented on top of BATON, VBI-tree, CAN…"). Every peer
occupies one position of a near-complete binary tree — internal positions
included — and owns a contiguous key range; ranges follow the tree's
in-order traversal, so the tree *is* a distributed index over ``[0, 1)``.
Multi-dimensional keys reach it through the Z-order (Morton) curve of
:mod:`repro.overlay.morton`: a point is owned by the node whose range
holds its scalar Morton key, and a sphere or query ball by the owners of
the Morton intervals covering its bounding box.

Each node maintains the links the BATON paper prescribes:

* parent / left child / right child;
* left and right **adjacent** nodes (in-order predecessor/successor);
* left and right **routing tables**: same-level nodes at positions
  ``pos ± 2^j`` — the exponential jumps that make routing O(log N).

Routing greedily follows the link whose range is closest to the target
key; with the routing tables present this converges in O(log N) hops.

Departures follow BATON's protocol: a leaf hands its range to an adjacent
node and detaches; an internal node first recruits the deepest-rightmost
leaf as a substitute, which adopts the leaver's tree position *and* range.
"""

from __future__ import annotations

import bisect

import numpy as np

from repro.exceptions import EmptyNetworkError, RoutingError, ValidationError
from repro.net.messages import MessageKind
from repro.overlay.maintenance import StoreMaintenancePlane
from repro.overlay.morton import (
    MortonNode,
    bits_per_dim,
    covering_intervals,
    morton_key,
)


class BatonNode(MortonNode):
    """A BATON member: tree position, key range, and link tables.

    Attributes
    ----------
    level / pos:
        Tree coordinates: root is ``(0, 0)``; the children of ``(l, p)``
        are ``(l+1, 2p)`` and ``(l+1, 2p+1)``.
    range_lo / range_hi:
        The owned key range ``[range_lo, range_hi)``; ranges across all
        nodes partition ``[0, 1)`` in in-order order.
    """

    def __init__(self, node_id: int, level: int, pos: int):
        super().__init__(node_id)
        self.level = level
        self.pos = pos
        self.range_lo = 0.0
        self.range_hi = 1.0
        self.parent: int | None = None
        self.left_child: int | None = None
        self.right_child: int | None = None
        self.left_adjacent: int | None = None
        self.right_adjacent: int | None = None
        self.left_routing: list[int] = []
        self.right_routing: list[int] = []

    def owns(self, key: float) -> bool:
        """True when ``key`` falls in this node's range."""
        if self.range_hi >= 1.0:
            return self.range_lo <= key <= 1.0
        return self.range_lo <= key < self.range_hi

    def links(self) -> list[int]:
        """All outgoing link targets (tree + adjacency + routing tables)."""
        out = []
        for link in (
            self.parent,
            self.left_child,
            self.right_child,
            self.left_adjacent,
            self.right_adjacent,
        ):
            if link is not None:
                out.append(link)
        out.extend(self.left_routing)
        out.extend(self.right_routing)
        return out


class BatonNetwork(StoreMaintenancePlane):
    """The BATON overlay.

    Nodes are added level-order (BATON's balance guarantee keeps the real
    network within one level of complete; level-order fill models that).
    A join splits the range of the node the newcomer attaches under —
    taking the lower half for a left child, the upper half for a right
    child — which preserves in-order consistency of ranges.
    """

    def __init__(self, dimensionality, *, fabric=None, rng=None, node_id_offset=0):
        super().__init__(
            dimensionality,
            fabric=fabric,
            rng=rng,
            node_id_offset=node_id_offset,
        )
        self._bits = bits_per_dim(self._dim)
        self._by_position: dict[tuple[int, int], int] = {}

    # -- membership -----------------------------------------------------------

    def join(self) -> int:
        """Add one node at the next level-order tree slot.

        The newcomer takes half of its parent's range (the half matching
        its in-order side) along with the entries living there. Adjacency
        and routing tables are rebuilt — a simulator simplification of
        BATON's incremental table updates (join messaging is not part of
        the dissemination experiments).
        """
        node_id = self._next_id
        self._next_id += 1
        count = len(self._nodes)
        level, pos = self._next_free_slot()
        node = BatonNode(node_id, level, pos)
        self._admit(node)
        self._by_position[(level, pos)] = node_id

        if count == 0:
            node.range_lo, node.range_hi = 0.0, 1.0
        else:
            parent_id = self._by_position[(level - 1, pos // 2)]
            parent = self.node(parent_id)
            node.parent = parent_id
            mid = (parent.range_lo + parent.range_hi) / 2.0
            if pos % 2 == 0:
                parent.left_child = node_id
                node.range_lo, node.range_hi = parent.range_lo, mid
                parent.range_lo = mid
            else:
                parent.right_child = node_id
                node.range_lo, node.range_hi = mid, parent.range_hi
                parent.range_hi = mid
            store = self.level_store

            def belongs(row: int, holder: BatonNode) -> bool:
                key = store.key_of(row)
                radius = store.radius_of(row)
                return holder.owns(self.scalar_key(key)) or (
                    radius > 0 and holder.node_id in self._cover(key, radius)
                )

            parent_rows = parent.membership.rows()
            moved = [r for r in parent_rows if belongs(r, node)]
            released = [r for r in parent_rows if not belongs(r, parent)]
            # New holder first, then release: a row held only by the parent
            # must never be transiently unreferenced (it would tombstone).
            node.absorb_rows(moved)
            parent.membership.discard_many(released)
        self._rebuild_tables()
        return node_id

    @staticmethod
    def _slot_for_index(index: int) -> tuple[int, int]:
        """Level-order slot of the ``index``-th node (root = index 0)."""
        level = (index + 1).bit_length() - 1
        return level, index + 1 - (1 << level)

    def _next_free_slot(self) -> tuple[int, int]:
        """First unoccupied level-order slot whose parent is occupied.

        Departures can leave holes above the deepest level; scanning in
        level order keeps the tree within BATON's balance bound.
        """
        index = 0
        while True:
            level, pos = self._slot_for_index(index)
            if (level, pos) not in self._by_position:
                if level == 0 or (level - 1, pos // 2) in self._by_position:
                    return level, pos
            index += 1

    def leave(self, node_id: int) -> None:
        """Graceful departure per BATON's protocol.

        A childless node merges its range into an adjacent node and
        detaches. A node with children first extracts the deepest,
        rightmost leaf as a *substitute*: the leaf departs from its own
        position (merging its range away), then adopts the leaver's tree
        position, range, and entries.
        """
        node = self.node(node_id)
        if node.left_child is None and node.right_child is None:
            self._detach_leaf(node)
        else:
            substitute_id = self._deepest_rightmost_leaf(exclude=node_id)
            substitute = self.node(substitute_id)
            self._detach_leaf(substitute)
            # Substitute adopts the leaver's identity in the tree.
            substitute.level, substitute.pos = node.level, node.pos
            substitute.range_lo, substitute.range_hi = (
                node.range_lo,
                node.range_hi,
            )
            substitute.absorb_rows(node.membership.rows())
            self._by_position[(node.level, node.pos)] = substitute_id
        node.membership.clear()
        self.level_store.maybe_compact()
        del self._nodes[node_id]
        self._by_position = {
            (n.level, n.pos): nid for nid, n in self._nodes.items()
        }
        if self._nodes:
            self._rebuild_tables()

    def _detach_leaf(self, leaf: BatonNode) -> None:
        """Merge a childless node's range into an in-order adjacent node."""
        starts, ids = self._range_starts()
        if len(ids) <= 1:
            return
        at = ids.index(leaf.node_id)
        if at > 0:
            absorber = self.node(ids[at - 1])
            absorber.range_hi = leaf.range_hi
        else:
            absorber = self.node(ids[at + 1])
            absorber.range_lo = leaf.range_lo
        absorber.absorb_rows(leaf.membership.rows())
        leaf.membership.clear()
        self._by_position.pop((leaf.level, leaf.pos), None)
        if leaf.parent is not None and leaf.parent in self._nodes:
            parent = self.node(leaf.parent)
            if parent.left_child == leaf.node_id:
                parent.left_child = None
            if parent.right_child == leaf.node_id:
                parent.right_child = None

    def _deepest_rightmost_leaf(self, *, exclude: int) -> int:
        """The childless node at the deepest level, rightmost position."""
        best = None
        for nid, node in self._nodes.items():
            if nid == exclude:
                continue
            if node.left_child is not None or node.right_child is not None:
                continue
            key = (node.level, node.pos)
            if best is None or key > best[0]:
                best = (key, nid)
        if best is None:
            raise ValidationError("no substitute leaf available")
        return best[1]

    # -- table maintenance ---------------------------------------------------

    def _rebuild_tables(self) -> None:
        """Recompute adjacency and routing tables from the current tree."""
        starts, ids = self._range_starts()
        order = {nid: i for i, nid in enumerate(ids)}
        for nid, node in self._nodes.items():
            i = order[nid]
            node.left_adjacent = ids[i - 1] if i > 0 else None
            node.right_adjacent = ids[i + 1] if i + 1 < len(ids) else None
            node.left_routing = []
            node.right_routing = []
            j = 1
            while j <= node.pos or node.pos + j < (1 << node.level):
                left = self._by_position.get((node.level, node.pos - j))
                if left is not None:
                    node.left_routing.append(left)
                right = self._by_position.get((node.level, node.pos + j))
                if right is not None:
                    node.right_routing.append(right)
                j <<= 1
            # Re-link children/parent from positions (robust after swaps).
            node.left_child = self._by_position.get(
                (node.level + 1, 2 * node.pos)
            )
            node.right_child = self._by_position.get(
                (node.level + 1, 2 * node.pos + 1)
            )
            node.parent = (
                self._by_position.get((node.level - 1, node.pos // 2))
                if node.level > 0
                else None
            )

    # -- Morton keys and ownership -----------------------------------------------

    def scalar_key(self, point: np.ndarray) -> float:
        """The Morton key of a unit-cube point at this overlay's resolution."""
        return morton_key(point, self._bits)

    def _locate(self, origin: int, point: np.ndarray) -> tuple[int, list[int]]:
        """Route to the owner of ``point``'s Morton key."""
        return self._route(origin, self.scalar_key(point))

    def _interval_owner_ids(self, lo: float, hi: float) -> list[int]:
        """Ids of nodes whose ranges overlap the key interval ``[lo, hi)``."""
        starts, ids = self._range_starts()
        n = len(starts)
        if n == 0:
            raise EmptyNetworkError("overlay has no nodes")
        at = (bisect.bisect_right(starts, lo) - 1) % n
        owners = [ids[at]]
        idx = at
        for __ in range(n - 1):
            idx = (idx + 1) % n
            if starts[idx] >= hi or starts[idx] < lo:
                break
            owners.append(ids[idx])
        return owners

    def _cover(self, key: np.ndarray, radius: float) -> list[int]:
        """Ids of all nodes owning Morton intervals covering the sphere's box."""
        lows = np.clip(key - radius, 0.0, 1.0)
        highs = np.clip(key + radius, 0.0, 1.0)
        owners: list[int] = []
        seen: set[int] = set()
        for lo, hi in covering_intervals(lows, highs, self._bits):
            for node_id in self._interval_owner_ids(lo, hi):
                if node_id not in seen:
                    seen.add(node_id)
                    owners.append(node_id)
        return owners

    # -- range walk --------------------------------------------------------------

    def _walk(
        self, origin: int, center: np.ndarray, radius: float, size: int
    ) -> tuple[list[int], int, int]:
        """Route from ``origin`` to each owner of the ball's Morton cover."""
        visited = self._cover(np.clip(center, 0.0, 1.0), radius)
        routing_hops = 0
        for node_id in visited:
            __, path = self._route(origin, self._node_start_key(node_id))
            self._charge_route(origin, path, MessageKind.RANGE_QUERY, size)
            routing_hops += len(path)
        return visited, routing_hops, 0

    def _node_start_key(self, node_id: int) -> float:
        """The start of ``node_id``'s range (a key that routes to it)."""
        starts, ids = self._range_starts()
        return starts[ids.index(node_id)]

    # -- routing -----------------------------------------------------------------

    def _range_starts(self) -> tuple[list[float], list[int]]:
        """The in-order partition of [0, 1): sorted (start, node id)."""
        pairs = sorted(
            (node.range_lo, nid) for nid, node in self._nodes.items()
        )
        return [p[0] for p in pairs], [p[1] for p in pairs]

    def _route(self, start_id: int, key: float) -> tuple[int, list[int]]:
        """Greedy range-distance routing over BATON's link structure."""

        def distance(node: BatonNode) -> float:
            if node.owns(key):
                return 0.0
            if key < node.range_lo:
                return node.range_lo - key
            return key - node.range_hi

        current = self.node(start_id)
        path: list[int] = []
        visited = {start_id}
        guard = 4 * len(self._nodes) + 8
        while not current.owns(key):
            guard -= 1
            if guard < 0:
                raise RoutingError(
                    f"BATON routing towards key {key} did not terminate"
                )
            candidates = [
                (distance(self.node(nid)), nid)
                for nid in current.links()
                if nid in self._nodes and nid not in visited
            ]
            if not candidates:
                raise RoutingError(
                    f"BATON routing stuck at node {current.node_id}"
                )
            candidates.sort()
            __, next_id = candidates[0]
            visited.add(next_id)
            path.append(next_id)
            current = self.node(next_id)
        return current.node_id, path
