"""Shared machinery for overlays indexing multi-dim keys via a Z-order curve.

Both the Chord-style ring and the BATON tree are fundamentally
one-dimensional: they partition the scalar interval ``[0, 1)`` among
nodes. Multi-dimensional keys reach them through the Morton (Z-order)
space-filling curve, and sphere-shaped objects/queries through *covering
intervals* — the set of contiguous Morton ranges covering the sphere's
bounding box. This module holds everything those two overlays share; each
subclass supplies only its routing graph and membership maintenance.
"""

from __future__ import annotations

import abc
import bisect

import numpy as np

from repro.exceptions import EmptyNetworkError
from repro.net.messages import MessageKind, vector_message_size
from repro.overlay.base import RangeReceipt
from repro.overlay.maintenance import StoreMaintenancePlane
from repro.overlay.storage import StoreBackedNode
from repro.utils.validation import check_positive, check_vector


def bits_per_dim(dimensionality: int) -> int:
    """Resolution of the Morton grid: ~24 total bits, at least 3 per dim."""
    return max(3, min(16, 24 // dimensionality))


def morton_code(point: np.ndarray, bits: int) -> int:
    """Map a unit-cube point to its integer Z-order code in ``[0, 2^(m·bits))``.

    Coordinates are quantised to ``bits`` bits and bit-interleaved
    (dimension 0 contributes the most significant bit of each group).
    The ring/BATON backends normalise it to ``[0, 1)`` via
    :func:`morton_key`.
    """
    p = np.asarray(point, dtype=np.float64)
    m = p.shape[0]
    cells = np.clip((p * (1 << bits)).astype(np.int64), 0, (1 << bits) - 1)
    code = 0
    for bit in range(bits - 1, -1, -1):
        for dim in range(m):
            code = (code << 1) | ((int(cells[dim]) >> bit) & 1)
    return code


def morton_key(point: np.ndarray, bits: int) -> float:
    """Map a unit-cube point to a scalar Z-order key in ``[0, 1)``."""
    p = np.asarray(point, dtype=np.float64)
    m = p.shape[0]
    return morton_code(p, bits) / float(1 << (m * bits))


def covering_intervals(
    lows: np.ndarray,
    highs: np.ndarray,
    bits: int,
    *,
    max_cells: int = 64,
) -> list[tuple[float, float]]:
    """Morton-key intervals covering the box ``[lows, highs]``.

    Recursively subdivides the unit cube; a full ``2^m``-way subdivision
    step keeps children contiguous in Morton order, so each undivided cell
    is one contiguous key interval. Recursion stops when the frontier would
    exceed ``max_cells`` cells (coarser cover = more flooding, never a miss)
    or cells reach the grid resolution. Adjacent intervals are merged.
    """
    m = lows.shape[0]
    intervals: list[tuple[float, float]] = []

    def recurse(cell_lo: np.ndarray, cell_hi: np.ndarray, key_lo: float,
                key_width: float, depth: int, budget: int) -> None:
        # Inclusive bounds: a zero-measure box (radius-0 query) on a grid
        # boundary must still be covered; the slight over-cover for
        # boundary-touching cells only costs extra flooding, never a miss.
        if np.any(cell_hi < lows) or np.any(cell_lo > highs):
            return
        fully_inside = np.all(cell_lo >= lows) and np.all(cell_hi <= highs)
        children = 1 << m
        if fully_inside or depth >= bits or budget < children:
            intervals.append((key_lo, key_lo + key_width))
            return
        mid = (cell_lo + cell_hi) / 2.0
        child_width = key_width / children
        for child_index in range(children):
            child_lo = cell_lo.copy()
            child_hi = cell_hi.copy()
            # Bit ``m-1-dim`` of the child index selects the half of ``dim``
            # (dimension 0 is the most significant interleaved bit).
            for dim in range(m):
                if (child_index >> (m - 1 - dim)) & 1:
                    child_lo[dim] = mid[dim]
                else:
                    child_hi[dim] = mid[dim]
            recurse(child_lo, child_hi, key_lo + child_index * child_width,
                    child_width, depth + 1, budget // children)

    recurse(np.zeros(m), np.ones(m), 0.0, 1.0, 0, max_cells * (1 << m))
    intervals.sort()
    merged: list[tuple[float, float]] = []
    for lo, hi in intervals:
        if merged and lo <= merged[-1][1] + 1e-15:
            merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
        else:
            merged.append((lo, hi))
    return merged


class MortonNode(StoreBackedNode):
    """A member node of a Morton-mapped overlay: just its held rows."""

    def __init__(self, node_id: int):
        self.node_id = node_id
        self._init_storage()


class MortonOverlayBase(StoreMaintenancePlane):
    """The backend hooks and range walk of any Morton-ordered partition.

    Ownership is by scalar Morton key, a sphere's cover is the owners of
    its bounding box's covering intervals, and a range query routes to
    each of them. Subclasses supply:

    * :meth:`_route` — the overlay's routing algorithm;
    * :meth:`_range_starts` — the current partition of ``[0, 1)`` as a
      sorted list of ``(start, node_id)`` pairs (node owns from its start
      to the next node's).
    """

    def __init__(self, dimensionality, *, fabric=None, rng=None, node_id_offset=0):
        super().__init__(
            dimensionality,
            fabric=fabric,
            rng=rng,
            node_id_offset=node_id_offset,
        )
        self._bits = bits_per_dim(self._dim)

    # -- abstract hooks ---------------------------------------------------

    @abc.abstractmethod
    def _route(self, start_id: int, key: float) -> tuple[int, list[int]]:
        """Route to the owner of scalar ``key``; returns (owner, path)."""

    @abc.abstractmethod
    def _range_starts(self) -> tuple[list[float], list[int]]:
        """The partition of [0,1): sorted start keys and their node ids."""

    # -- shared plumbing -----------------------------------------------------

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

    def range_query(
        self, origin: int, center: np.ndarray, radius: float
    ) -> RangeReceipt:
        """Entries intersecting the query ball, via its Morton interval cover."""
        center = check_vector(center, "center", dim=self._dim)
        check_positive(radius, "radius", strict=False)
        size = vector_message_size(self._dim, scalars=1)
        targets = self._cover(np.clip(center, 0.0, 1.0), radius)
        # One store-wide intersection pass per query; each visited node
        # then filters its membership with a boolean gather.
        mask = self.level_store.intersection_mask(center, radius)
        row_arrays: list[np.ndarray] = []
        visited: list[int] = []
        routing_hops = 0
        for node_id in targets:
            __, path = self._route(origin, self._node_start_key(node_id))
            self._charge_route(origin, path, MessageKind.RANGE_QUERY, size)
            routing_hops += len(path)
            visited.append(node_id)
            row_arrays.append(self.node(node_id).rows_matching(mask))
        self.fabric.finish_operation(MessageKind.RANGE_QUERY, routing_hops)
        return RangeReceipt(
            entries=self.level_store.union_candidates(row_arrays),
            routing_hops=routing_hops,
            flood_hops=0,
            nodes_visited=visited,
        )

    def _node_start_key(self, node_id: int) -> float:
        """The start of ``node_id``'s range (a key that routes to it)."""
        starts, ids = self._range_starts()
        return starts[ids.index(node_id)]
