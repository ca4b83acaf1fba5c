"""VBI-tree: a Virtual Binary Index tree [Jagadish, Ooi, Vu, Zhang, Zhou —
ICDE 2006].

The third overlay the paper names ("BATON, VBI-tree, CAN or any
peer-to-peer overlay … so long as they can support multi-dimensional
indexing"). Unlike BATON, the VBI-tree indexes
multi-dimensional regions *natively* — no space-filling curve:

* the key space ``[0,1]^m`` is partitioned KD-style into leaf regions,
  one **leaf** per peer;
* **internal** tree nodes are *virtual*: each is managed by one of the
  peers beneath it (here: the leftmost descendant leaf, mirroring the
  VBI-tree's rule that a virtual node is maintained by a real peer in its
  subtree);
* every node knows its region (the union of its children's), so routing
  climbs to the lowest ancestor whose region contains the target and
  descends into the child containing it — O(log N) *virtual* hops, and
  each virtual hop is a real peer-to-peer message only when the managing
  peer changes.

Range queries traverse the tree, descending only into regions that
intersect the query sphere; sphere insertion replicates to every
intersecting leaf (the same Figure 6 requirement as CAN).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exceptions import EmptyNetworkError, RoutingError, ValidationError
from repro.net.messages import MessageKind, vector_message_size
from repro.overlay.base import RangeReceipt
from repro.overlay.can.zone import Zone
from repro.overlay.maintenance import StoreMaintenancePlane
from repro.overlay.morton import MortonNode
from repro.utils.validation import check_positive, check_vector


class VBILeaf(MortonNode):
    """A peer: owns one leaf region and manages ancestor virtual nodes."""

    def __init__(self, node_id: int, region: Zone):
        super().__init__(node_id)
        self.region = region
        #: Index into the network's virtual-tree array.
        self.tree_index: int = 0


@dataclass
class _VirtualNode:
    """One slot of the binary tree (array-embedded: children of ``i`` are
    ``2i+1`` and ``2i+2``)."""

    region: Zone
    leaf_id: int | None = None  # set on leaves; None on internal nodes
    split_dim: int = 0
    children: tuple | None = None  # (left_index, right_index)
    manager_id: int = -1  # peer managing this virtual node


class VBITree(StoreMaintenancePlane):
    """The VBI-tree overlay.

    Joins split the largest leaf region KD-style (cycling dimensions with
    depth), handing one half to the newcomer — the tree stays balanced
    because the largest region is always a shallowest leaf. Departures
    merge sibling leaves (recruiting a substitute leaf when the leaver's
    sibling is internal), mirroring the protocol used for BATON.
    """

    def __init__(self, dimensionality, *, fabric=None, rng=None, node_id_offset=0):
        super().__init__(
            dimensionality,
            fabric=fabric,
            rng=rng,
            node_id_offset=node_id_offset,
        )
        self._tree: dict[int, _VirtualNode] = {}

    # -- membership -----------------------------------------------------------

    def join(self) -> int:
        """Add one peer by splitting the largest (shallowest) leaf region."""
        node_id = self._next_id
        self._next_id += 1
        if not self._nodes:
            leaf = VBILeaf(node_id, Zone.full(self._dim))
            self._admit(leaf)
            self._tree[0] = _VirtualNode(
                region=leaf.region, leaf_id=node_id, manager_id=node_id
            )
            return node_id

        # Split the largest leaf (ties: lowest tree index → balanced fill).
        target_index = max(
            (idx for idx, vn in self._tree.items() if vn.leaf_id is not None),
            key=lambda idx: (self._tree[idx].region.volume, -idx),
        )
        parent_vn = self._tree[target_index]
        old_leaf = self.node(parent_vn.leaf_id)
        split_dim = int(np.argmax(parent_vn.region.extent()))
        left_region, right_region = parent_vn.region.split(split_dim)

        new_leaf = VBILeaf(node_id, right_region)
        self._admit(new_leaf)
        old_leaf.region = left_region

        left_index, right_index = 2 * target_index + 1, 2 * target_index + 2
        self._tree[left_index] = _VirtualNode(
            region=left_region, leaf_id=old_leaf.node_id,
            manager_id=old_leaf.node_id,
        )
        self._tree[right_index] = _VirtualNode(
            region=right_region, leaf_id=node_id, manager_id=node_id,
        )
        old_leaf.tree_index = left_index
        new_leaf.tree_index = right_index
        parent_vn.leaf_id = None
        parent_vn.split_dim = split_dim
        parent_vn.children = (left_index, right_index)
        self._refresh_managers()

        # Hand over the entries falling in (or overlapping) the new region.
        store = self.level_store
        old_rows = old_leaf.membership.rows()
        moved = [
            r for r in old_rows
            if right_region.intersects_sphere(store.key_of(r), store.radius_of(r))
        ]
        released = [
            r for r in old_rows
            if not left_region.intersects_sphere(store.key_of(r), store.radius_of(r))
        ]
        # New holder first, then release (rows held only here must never be
        # transiently unreferenced).
        new_leaf.absorb_rows(moved)
        old_leaf.membership.discard_many(released)
        return node_id

    def leave(self, node_id: int) -> None:
        """Graceful departure: the sibling subtree absorbs the region.

        If the sibling is a leaf, the two regions merge back into the
        parent slot. If the sibling is internal, a substitute leaf (a leaf
        whose own sibling is a leaf) is extracted first — its region
        merges with its sibling's — and the substitute adopts the leaving
        peer's leaf.
        """
        leaf = self.node(node_id)
        del self._nodes[node_id]
        if not self._nodes:
            self._tree.clear()
            leaf.membership.clear()
            self.level_store.maybe_compact()
            return
        vn = self._tree[leaf.tree_index]
        sibling_index = self._sibling_index(leaf.tree_index)
        sibling_vn = self._tree.get(sibling_index)
        if sibling_vn is not None and sibling_vn.leaf_id is not None:
            self._merge_into_parent(leaf, sibling_vn)
        else:
            substitute = self._substitute_leaf(exclude=node_id)
            sub_vn = self._tree[substitute.tree_index]
            sub_sibling = self._tree[self._sibling_index(substitute.tree_index)]
            self._merge_into_parent(substitute, sub_sibling)
            # Substitute adopts the leaver's slot, region and entries.
            substitute.tree_index = leaf.tree_index
            substitute.region = leaf.region
            vn.leaf_id = substitute.node_id
            substitute.absorb_rows(leaf.membership.rows())
            leaf.membership.clear()
        self.level_store.maybe_compact()
        self._refresh_managers()

    @staticmethod
    def _sibling_index(index: int) -> int:
        if index == 0:
            return 0
        return index + 1 if index % 2 == 1 else index - 1

    def _merge_into_parent(self, leaving: VBILeaf, sibling_vn: _VirtualNode) -> None:
        """Collapse ``leaving``'s slot and its sibling into their parent."""
        parent_index = (leaving.tree_index - 1) // 2
        parent_vn = self._tree[parent_index]
        survivor = self.node(sibling_vn.leaf_id)
        parent_vn.leaf_id = survivor.node_id
        parent_vn.children = None
        survivor.region = parent_vn.region
        survivor.tree_index = parent_index
        survivor.absorb_rows(leaving.membership.rows())
        leaving.membership.clear()
        # Remove both child slots: the parent is a leaf again.
        left_index, right_index = 2 * parent_index + 1, 2 * parent_index + 2
        self._tree.pop(left_index, None)
        self._tree.pop(right_index, None)

    def _substitute_leaf(self, *, exclude: int) -> VBILeaf:
        """A leaf whose sibling is also a leaf (deepest first)."""
        best = None
        for nid, leaf in self._nodes.items():
            if nid == exclude:
                continue
            sibling = self._tree.get(self._sibling_index(leaf.tree_index))
            if sibling is None or sibling.leaf_id is None:
                continue
            if sibling.leaf_id == exclude:
                continue
            if best is None or leaf.tree_index > best.tree_index:
                best = leaf
        if best is None:
            raise ValidationError("no substitute leaf available")
        return best

    def _refresh_managers(self) -> None:
        """Assign each virtual node's manager: its leftmost descendant leaf."""

        def leftmost_leaf(index: int) -> int:
            vn = self._tree[index]
            while vn.leaf_id is None:
                index = vn.children[0]
                vn = self._tree[index]
            return vn.leaf_id

        for index, vn in self._tree.items():
            vn.manager_id = (
                vn.leaf_id if vn.leaf_id is not None else leftmost_leaf(index)
            )

    # -- routing ----------------------------------------------------------------

    def _locate(self, start_id: int, point: np.ndarray) -> tuple[int, list[int]]:
        """Climb to the lowest covering ancestor, then descend.

        Each step moves between *managing peers*; consecutive virtual
        nodes managed by the same peer cost no message.
        """
        if not self._nodes:
            raise EmptyNetworkError("VBI tree has no nodes")
        start = self.node(start_id)
        index = start.tree_index
        path: list[int] = []
        current_peer = start_id
        guard = 4 * len(self._tree) + 8

        def hop_to(peer_id: int) -> None:
            nonlocal current_peer
            if peer_id != current_peer:
                path.append(peer_id)
                current_peer = peer_id

        # Climb while the region does not contain the point.
        while not self._tree[index].region.contains(point):
            guard -= 1
            if guard < 0:
                raise RoutingError("VBI climb did not terminate")
            if index == 0:
                raise RoutingError(
                    f"root region does not contain {point!r}"
                )
            index = (index - 1) // 2
            hop_to(self._tree[index].manager_id)
        # Descend into the child containing the point.
        while self._tree[index].leaf_id is None:
            guard -= 1
            if guard < 0:
                raise RoutingError("VBI descent did not terminate")
            left_index, right_index = self._tree[index].children
            if self._tree[left_index].region.contains(point):
                index = left_index
            else:
                index = right_index
            hop_to(self._tree[index].manager_id)
        owner = self._tree[index].leaf_id
        hop_to(owner)
        return owner, path

    # -- range walk --------------------------------------------------------------

    def range_query(
        self, origin: int, center: np.ndarray, radius: float
    ) -> RangeReceipt:
        """Entries intersecting the query ball, by tree traversal.

        Routes to the ball centre's leaf, climbs to the lowest ancestor
        covering the whole ball, then visits every leaf beneath it whose
        region intersects the ball (one message per distinct manager/leaf
        transition).
        """
        center = check_vector(center, "center", dim=self._dim)
        check_positive(radius, "radius", strict=False)
        size = vector_message_size(self._dim, scalars=1)
        in_cube = np.clip(center, 0.0, 1.0)
        owner_id, path = self._locate(origin, in_cube)
        self._charge_route(origin, path, MessageKind.RANGE_QUERY, size)

        targets = self._cover(in_cube, radius)
        # One store-wide intersection pass per query; each visited node
        # then filters its membership with a boolean gather.
        mask = self.level_store.intersection_mask(center, radius)
        row_arrays: list[np.ndarray] = []
        visited: list[int] = []
        flood_hops = 0
        previous = owner_id
        for leaf_id in targets:
            if leaf_id != previous:
                self.fabric.transmit(
                    previous, leaf_id, MessageKind.RANGE_QUERY, size
                )
                flood_hops += 1
                previous = leaf_id
            visited.append(leaf_id)
            row_arrays.append(self.node(leaf_id).rows_matching(mask))
        self.fabric.finish_operation(
            MessageKind.RANGE_QUERY, len(path) + flood_hops
        )
        return RangeReceipt(
            entries=self.level_store.union_candidates(row_arrays),
            routing_hops=len(path),
            flood_hops=flood_hops,
            nodes_visited=visited,
        )

    def _cover(self, center: np.ndarray, radius: float) -> list[int]:
        """Leaf ids whose regions intersect the (Euclidean) ball."""
        out: list[int] = []
        stack = [0] if self._tree else []
        while stack:
            index = stack.pop()
            vn = self._tree[index]
            if not vn.region.intersects_sphere(center, radius):
                continue
            if vn.leaf_id is not None:
                out.append(vn.leaf_id)
            else:
                stack.extend(vn.children)
        return out

    # -- introspection -----------------------------------------------------------

    def total_region_volume(self) -> float:
        """Sum of leaf region volumes — 1.0 exactly when regions tile."""
        return sum(node.region.volume for node in self._nodes.values())
