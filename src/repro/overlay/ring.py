"""A Chord-style ring overlay with Z-order (Morton) key mapping.

The paper claims Hyper-M "works independently of the underlying overlay
structure" and names BATON, VBI-tree and CAN as candidates. This module is
one of the alternative substrates backing that claim: a one-dimensional
ring of nodes (Chord-like successor + finger routing) indexing
multi-dimensional keys through the shared Z-order machinery of
:mod:`repro.overlay.morton`.

* Points map to a scalar Morton key in ``[0, 1)``; each node owns the arc
  from its position to its successor's.
* Spheres replicate to every node owning part of the Morton intervals
  covering the sphere's bounding box.
* Range queries route to each covering interval's owners.
"""

from __future__ import annotations

import bisect

import numpy as np

from repro.exceptions import EmptyNetworkError, RoutingError
from repro.overlay.morton import (
    MortonNode,
    MortonOverlayBase,
    covering_intervals,  # noqa: F401  (re-exported: part of the public API)
    morton_key,  # noqa: F401  (re-exported)
)


class RingNode(MortonNode):
    """A ring member: position, finger table, and local store."""

    def __init__(self, node_id: int, position: float):
        super().__init__(node_id)
        self.position = position
        self.fingers: list[int] = []


class RingNetwork(MortonOverlayBase):
    """Chord-like ring overlay over Morton-mapped multi-dimensional keys.

    Nodes sit at random ring positions; node ``i`` owns the half-open arc
    from its position up to the next node's. Routing uses ``log2(N)``
    fingers (successors of ``position + 2^-k``).
    """

    def __init__(self, dimensionality, *, fabric=None, rng=None, node_id_offset=0):
        super().__init__(
            dimensionality,
            fabric=fabric,
            rng=rng,
            node_id_offset=node_id_offset,
        )
        self._positions: list[float] = []  # sorted
        self._ids_by_position: list[int] = []

    # -- membership -----------------------------------------------------------

    def join(self, position: float | None = None) -> int:
        """Add one node (random position by default); rebuilds fingers.

        Ring joins are not individually hop-charged (a Chord join costs
        O(log N) messages; the dissemination experiments measure
        insertion, not joins).
        """
        node_id = self._next_id
        self._next_id += 1
        if position is None:
            position = float(self._rng.random())
            while position in self._positions:  # pragma: no cover
                position = float(self._rng.random())
        self._admit(RingNode(node_id, position))
        at = bisect.bisect_left(self._positions, position)
        self._positions.insert(at, position)
        self._ids_by_position.insert(at, node_id)
        self._rebuild_fingers()
        return node_id

    def leave(self, node_id: int) -> None:
        """Gracefully remove ``node_id``: its predecessor absorbs its arc.

        Ring departure is trivial compared to CAN: node X owns the arc
        ``[pos_X, pos_successor)``, so when X leaves, its predecessor's arc
        simply extends over it. X's stored entries move to the predecessor
        and finger tables are rebuilt.
        """
        node = self.node(node_id)
        at = self._ids_by_position.index(node_id)
        del self._nodes[node_id]
        self._positions.pop(at)
        self._ids_by_position.pop(at)
        if not self._nodes:
            node.membership.clear()
            self.level_store.maybe_compact()
            return
        predecessor_id = self._ids_by_position[
            (at - 1) % len(self._ids_by_position)
        ]
        # Hand the rows over before the leaver releases them, so entries
        # held only here are never transiently unreferenced.
        self.node(predecessor_id).absorb_rows(node.membership.rows())
        node.membership.clear()
        self.level_store.maybe_compact()
        self._rebuild_fingers()

    def _rebuild_fingers(self) -> None:
        n = len(self._positions)
        k_max = max(1, int(np.ceil(np.log2(max(n, 2)))))
        for node in self._nodes.values():
            node.fingers = [
                self._owner_at((node.position + 2.0 ** (-k)) % 1.0)
                for k in range(1, k_max + 1)
            ]
            successor = self._successor_id(node.node_id)
            if successor not in node.fingers:
                node.fingers.append(successor)

    def _owner_at(self, key: float) -> int:
        """Node owning ring position ``key`` (arc starts at node position)."""
        if not self._positions:
            raise EmptyNetworkError("ring has no nodes")
        at = bisect.bisect_right(self._positions, key) - 1
        return self._ids_by_position[at]  # wraps: index -1 is the last node

    def _successor_id(self, node_id: int) -> int:
        at = self._ids_by_position.index(node_id)
        return self._ids_by_position[(at + 1) % len(self._ids_by_position)]

    # -- MortonOverlayBase hooks -------------------------------------------------

    def _range_starts(self) -> tuple[list[float], list[int]]:
        """Arc starts are node positions, already sorted."""
        return self._positions, self._ids_by_position

    @staticmethod
    def _clockwise(from_pos: float, to_pos: float) -> float:
        return (to_pos - from_pos) % 1.0

    def _route(self, start_id: int, key: float) -> tuple[int, list[int]]:
        """Greedy clockwise finger routing; returns (owner, path)."""
        target_owner = self._owner_at(key)
        current = self.node(start_id)
        path: list[int] = []
        guard = 4 * len(self._nodes) + 8
        while current.node_id != target_owner:
            guard -= 1
            if guard < 0:
                raise RoutingError(
                    f"ring routing towards key {key} did not terminate"
                )
            remaining = self._clockwise(current.position, key)
            best_id = self._successor_id(current.node_id)
            best_gain = self._clockwise(
                current.position, self.node(best_id).position
            )
            for finger_id in current.fingers:
                gain = self._clockwise(
                    current.position, self.node(finger_id).position
                )
                if best_gain < gain <= remaining:
                    best_gain = gain
                    best_id = finger_id
            path.append(best_id)
            current = self.node(best_id)
        return current.node_id, path
