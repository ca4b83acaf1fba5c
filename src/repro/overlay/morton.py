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

from repro.exceptions import EmptyNetworkError, ValidationError
from repro.index import LevelStore
from repro.net.messages import MessageKind, vector_message_size
from repro.net.network import Network
from repro.net.node import SimNode
from repro.overlay.base import InsertReceipt, RangeReceipt
from repro.overlay.maintenance import StoreMaintenancePlane
from repro.overlay.storage import StoreBackedNode
from repro.utils.rng import ensure_rng
from repro.utils.validation import check_positive, check_unit_cube, check_vector


def bits_per_dim(dimensionality: int) -> int:
    """Resolution of the Morton grid: ~24 total bits, at least 3 per dim."""
    return max(3, min(16, 24 // dimensionality))


def morton_code(point: np.ndarray, bits: int) -> int:
    """Map a unit-cube point to its integer Z-order code in ``[0, 2^(m·bits))``.

    Coordinates are quantised to ``bits`` bits and bit-interleaved
    (dimension 0 contributes the most significant bit of each group).
    The Kademlia backend keeps this integer form as the XOR-metric key;
    the ring/BATON backends normalise it to ``[0, 1)`` via
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


class MortonNode(SimNode, StoreBackedNode):
    """A member node of a Morton-mapped overlay: just its held rows."""

    def __init__(self, node_id: int):
        super().__init__(node_id)
        self._init_storage()


class MortonOverlayBase(StoreMaintenancePlane, abc.ABC):
    """Insert/lookup/range-query logic over any Morton-ordered partition.

    Subclasses supply:

    * :meth:`_route` — the overlay's routing algorithm;
    * :meth:`_range_starts` — the current partition of ``[0, 1)`` as a
      sorted list of ``(start, node_id)`` pairs (node owns from its start
      to the next node's).

    The shared :class:`~repro.overlay.maintenance.StoreMaintenancePlane`
    makes every Morton-ordered backend delta-publish-capable;
    :meth:`extend_replication` below completes that plane with interval
    geometry.
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
        self._bits = bits_per_dim(self._dim)
        self.fabric = fabric if fabric is not None else Network()
        self._rng = ensure_rng(rng)
        self._nodes: dict[int, MortonNode] = {}
        self._next_id = int(node_id_offset)
        #: The shared columnar index for this overlay (one per level).
        self.level_store = LevelStore(self._dim)

    # -- abstract hooks ---------------------------------------------------

    @abc.abstractmethod
    def _route(self, start_id: int, key: float) -> tuple[int, list[int]]:
        """Route to the owner of scalar ``key``; returns (owner, path)."""

    @abc.abstractmethod
    def _range_starts(self) -> tuple[list[float], list[int]]:
        """The partition of [0,1): sorted start keys and their node ids."""

    # -- shared plumbing -----------------------------------------------------

    @property
    def dimensionality(self) -> int:
        """Dimensionality of the original key space."""
        return self._dim

    @property
    def node_ids(self) -> list[int]:
        """Ids of all member nodes."""
        return list(self._nodes)

    def node(self, node_id: int) -> MortonNode:
        """Look up a member node."""
        try:
            return self._nodes[node_id]
        except KeyError:
            raise ValidationError(
                f"unknown {type(self).__name__} node {node_id}"
            ) from None

    def __len__(self) -> int:
        return len(self._nodes)

    def scalar_key(self, point: np.ndarray) -> float:
        """The Morton key of a unit-cube point at this overlay's resolution."""
        return morton_key(point, self._bits)

    def _charge_path(self, origin: int, path: list[int], kind, size: int) -> None:
        prev = origin
        for hop_id in path:
            self.fabric.transmit(prev, hop_id, kind, size)
            prev = hop_id

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

    def _sphere_interval_nodes(
        self, key: np.ndarray, radius: float
    ) -> list[int]:
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

    # -- data plane -------------------------------------------------------------

    def insert(
        self, origin: int, key: np.ndarray, value: object, *, radius: float = 0.0
    ) -> InsertReceipt:
        """Publish an entry; spheres replicate across their Morton cover.

        The entry becomes one row of the shared level store; replication
        is multi-membership of that row at every covering node.
        """
        key = check_unit_cube(check_vector(key, "key", dim=self._dim), "key")
        check_positive(radius, "radius", strict=False)
        owner_id, path = self._route(origin, self.scalar_key(key))
        size = vector_message_size(self._dim, scalars=2)
        self._charge_path(origin, path, MessageKind.INSERT, size)
        row = self.level_store.add(key, float(radius), value)
        self.node(owner_id).add_row(row)
        replicas = 0
        if radius > 0.0:
            for node_id in self._sphere_interval_nodes(key, radius):
                if node_id == owner_id:
                    continue
                self.fabric.transmit(
                    owner_id, node_id, MessageKind.REPLICATE, size
                )
                self.node(node_id).add_row(row)
                replicas += 1
        receipt = InsertReceipt(
            owner=owner_id, routing_hops=len(path), replicas=replicas
        )
        self.fabric.finish_operation(MessageKind.INSERT, receipt.total_hops)
        return receipt

    def lookup(self, origin: int, key: np.ndarray) -> RangeReceipt:
        """Point query at the Morton owner of ``key``."""
        key = check_vector(key, "key", dim=self._dim)
        owner_id, path = self._route(origin, self.scalar_key(key))
        self._charge_path(
            origin, path, MessageKind.LOOKUP, vector_message_size(self._dim)
        )
        entries = self.node(owner_id).entries_intersecting(key, 0.0)
        self.fabric.finish_operation(MessageKind.LOOKUP, len(path))
        return RangeReceipt(
            entries=entries, routing_hops=len(path), nodes_visited=[owner_id]
        )

    def range_query(
        self, origin: int, center: np.ndarray, radius: float
    ) -> RangeReceipt:
        """Entries intersecting the query ball, via its Morton interval cover."""
        center = check_vector(center, "center", dim=self._dim)
        check_positive(radius, "radius", strict=False)
        size = vector_message_size(self._dim, scalars=1)
        targets = self._sphere_interval_nodes(
            np.clip(center, 0.0, 1.0), radius
        )
        # One store-wide intersection pass per query; each visited node
        # then filters its membership with a boolean gather.
        mask = self.level_store.intersection_mask(center, radius)
        row_arrays: list[np.ndarray] = []
        visited: list[int] = []
        routing_hops = 0
        for node_id in targets:
            __, path = self._route(origin, self._node_start_key(node_id))
            self._charge_path(origin, path, MessageKind.RANGE_QUERY, size)
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

    # -- maintenance plane -------------------------------------------------------

    def extend_replication(self, row: int, holder_ids) -> list[int]:
        """Replicate a grown row to newly covered Morton-interval owners.

        Recomputes the sphere's interval cover at its post-growth radius
        and sends one ``REPLICATE`` message (key + radius + payload
        scalars, same size as insert-time replication) from the
        lowest-id current holder to every covering node not yet holding
        the row. Existing holders keep their copies untouched.
        """
        store = self.level_store
        key = store.key_of(row)
        radius = store.radius_of(row)
        holders = set(holder_ids)
        source = min(holders)
        size = vector_message_size(self._dim, scalars=2)
        added: list[int] = []
        for node_id in self._sphere_interval_nodes(
            np.clip(key, 0.0, 1.0), radius
        ):
            if node_id in holders:
                continue
            self.fabric.transmit(source, node_id, MessageKind.REPLICATE, size)
            self.node(node_id).add_row(row)
            added.append(node_id)
        return added

    # -- introspection -----------------------------------------------------------

    def loads(self) -> dict[int, int]:
        """Stored-entry count per node."""
        return {node_id: node.load for node_id, node in self._nodes.items()}
