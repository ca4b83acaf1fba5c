"""Bulk CAN construction: the analytic grid bootstrap for scale runs.

Growing a CAN one :meth:`~repro.overlay.can.network.CANNetwork.join` at
a time is the *protocol*: each join routes to a zone owner and splits
its zone, which is O(routing hops) per node and quadratic-ish overall —
fine at hundreds of nodes, hopeless at 10⁵. But the *partition* that a
full sequence of uniform midpoint splits converges to is known in closed
form: a power-of-two grid whose per-dimension cell counts follow CAN's
round-robin longest-side split order. This module builds that end state
directly:

* :func:`grid_shape` — the per-dimension cell counts for ``n`` nodes
  (``n`` rounded up to a power of two);
* :func:`build_grid_can` — a :class:`CANNetwork` whose node ids are
  registered on the fabric (one :meth:`Network.register_many`) but whose
  nodes do not exist yet. The first read of its topology (``node()``,
  ``node_ids``, ``len``, ``zone_table()``, ``join``, ``leave``,
  ``loads()``, a loadmap) builds them all in one step: zones from one
  validated array pass, neighbour tables from grid adjacency (±1 per
  dimension, torus wrap) instead of O(n²) geometry scans — validated
  against :meth:`CANNetwork._rebuild_all_neighbors` in the test suite —
  and memberships holding whatever was published before;
* :func:`bulk_publish` — vectorised sphere publication: everything is
  validated before anything changes, then :meth:`LevelStore.bulk_add`
  appends every row in one pass, owners come from one
  ``floor(key · counts)`` gather, and traffic is accounted through the
  fabric's batched :meth:`~repro.net.network.Network.transmit_bulk`.
  Each row's owner is recorded as a column
  (:meth:`LevelStore.defer_rows`); the holdings land on the owners'
  memberships in one :meth:`LevelStore.assign_rows` refcount pass when
  the nodes are built — at once if they already are.

A scale run that only scores through the level store therefore never
builds a node.

Fidelity notes. Bulk publication places each sphere at its key's owner
only — the per-insert replication to every overlapped zone
(:mod:`repro.overlay.can.replication`) is intentionally skipped, because
at scale-bench sizes it is the dominant cost and the scale query plane
never depends on it: scale queries score through the *store-wide*
intersection mask (:meth:`LevelStore.intersection_mask`, or its sharded
twin via ``repro.engine``), whose completeness is a property of the
columnar store, not of per-node memberships. Flood-walk queries over a
bulk-built overlay remain correct for every sphere contained in a
visited zone but may miss boundary-overlapping spheres a replicated
build would have surfaced; experiments that measure recall through the
flood walk should grow their overlay through the join protocol instead.
"""

from __future__ import annotations

import weakref
from collections.abc import MutableMapping
from dataclasses import dataclass

import numpy as np

from repro.exceptions import ValidationError
from repro.net.messages import MessageKind, vector_message_size
from repro.overlay.can.network import CANNetwork
from repro.overlay.can.node import CANNode
from repro.overlay.can.zone import Zone
from repro.utils.validation import check_count, check_matrix, check_unit_cube


def grid_shape(dimensionality: int, n_nodes: int) -> tuple[int, ...]:
    """Per-dimension cell counts of the ``n_nodes``-cell CAN grid.

    ``n_nodes`` is rounded up to the next power of two (``2**s`` cells);
    the ``s`` binary splits are dealt round-robin starting at dimension
    0, matching :meth:`Zone.split`'s longest-side, lowest-index
    tie-break under uniform midpoint splitting — so the grid is exactly
    the partition an idealised join sequence converges to.
    """
    dimensionality = check_count(dimensionality, "dimensionality")
    splits = (check_count(n_nodes, "n_nodes") - 1).bit_length()
    base, extra = divmod(splits, dimensionality)
    per_dim = [base + (1 if d < extra else 0) for d in range(dimensionality)]
    return tuple(2 ** s for s in per_dim)


@dataclass(frozen=True)
class GridPlan:
    """Analytic layout of one bulk-built CAN: cell counts + id mapping.

    Returned alongside the network by :func:`build_grid_can`; its
    :meth:`owner_nodes` is the closed-form replacement for per-key
    greedy routing (owner = the grid cell containing the key).
    """

    counts: tuple[int, ...]
    node_id_offset: int

    @property
    def n_cells(self) -> int:
        """Total grid cells (== nodes in the bulk-built overlay)."""
        return int(np.prod(self.counts))

    def owner_nodes(self, keys: np.ndarray) -> np.ndarray:
        """Owner node id per key row — one vectorised gather.

        Keys must be finite and in the unit cube (to the routed insert's
        tolerance); keys on the outer face (coordinate exactly 1.0) clamp
        into the last cell, mirroring :meth:`Zone.contains`' closed outer
        boundary.
        """
        keys = np.asarray(keys, dtype=np.float64)
        if keys.ndim != 2 or keys.shape[1] != len(self.counts):
            raise ValidationError(
                f"keys shape {keys.shape} does not match a "
                f"{len(self.counts)}-d grid"
            )
        return self._owners(
            check_unit_cube(check_matrix(keys, "keys", min_rows=0), "keys")
        )

    def _owners(self, keys: np.ndarray) -> np.ndarray:
        """:meth:`owner_nodes` for keys already checked to be in the cube."""
        counts = np.asarray(self.counts, dtype=np.int64)
        cells = np.clip(
            np.floor(keys * counts).astype(np.int64), 0, counts - 1
        )
        flat = np.ravel_multi_index(tuple(cells.T), self.counts)
        return self.node_id_offset + flat


class _UnbuiltGrid(MutableMapping):
    """A grid CAN's member table before anything has read it.

    :func:`build_grid_can` puts this where the ``{node_id: CANNode}``
    dict goes. Any use of it builds the nodes (:func:`_build_grid`),
    which puts the real dict in its place on the network, and is then
    answered by that dict. Until then it only knows the grid's
    :class:`GridPlan`, which :func:`bulk_publish` reads to check owners.
    """

    __slots__ = ("plan", "_can", "_nodes")

    def __init__(self, can: CANNetwork, plan: GridPlan):
        self.plan = plan
        # Weak, so the network and its table form no reference cycle.
        self._can = weakref.ref(can)
        self._nodes: dict[int, CANNode] | None = None

    def _built(self) -> dict[int, CANNode]:
        if self._nodes is None:
            self._nodes = _build_grid(self._can(), self.plan)
        return self._nodes

    def __getitem__(self, node_id):
        return self._built()[node_id]

    def __setitem__(self, node_id, node):
        self._built()[node_id] = node

    def __delitem__(self, node_id):
        del self._built()[node_id]

    def __iter__(self):
        return iter(self._built())

    def __len__(self):
        return len(self._built())


def _build_grid(can: CANNetwork, plan: GridPlan) -> dict[int, CANNode]:
    """Build a grid CAN's nodes and make them its member table.

    Each cell becomes one node whose id :func:`build_grid_can` already
    registered on the fabric. The cells are validated like any zone, all
    at once (:meth:`Zone.from_rows`); neighbour tables come from grid
    adjacency; the rows published so far land on their owners'
    memberships (:meth:`LevelStore.land_deferred`). Returns the new
    ``{node_id: CANNode}`` dict, now ``can._nodes``.
    """
    counts = plan.counts
    n_cells = plan.n_cells
    store = can.level_store
    counts_arr = np.asarray(counts, dtype=np.float64)
    cell_index = np.stack(
        np.unravel_index(np.arange(n_cells), counts), axis=1
    )
    zones = Zone.from_rows(
        cell_index / counts_arr, (cell_index + 1) / counts_arr
    )
    nodes: list[CANNode] = []
    for cell, zone in enumerate(zones):
        node = CANNode(plan.node_id_offset + cell, zone)
        node.attach_store(store)
        nodes.append(node)

    # Grid adjacency: ±1 (mod counts) in exactly one dimension. Each
    # +1 edge covers the matching -1 edge of its other endpoint;
    # dimensions of extent 1 have no distinct neighbour.
    for d in range(len(counts)):
        if counts[d] < 2:
            continue
        up = cell_index.copy()
        up[:, d] = (up[:, d] + 1) % counts[d]
        up_flat = np.ravel_multi_index(tuple(up.T), counts)
        for cell in range(n_cells):
            a = nodes[cell]
            b = nodes[int(up_flat[cell])]
            a.add_neighbor(b.node_id, tuple(b.zones))
            b.add_neighbor(a.node_id, tuple(a.zones))
    members = {node.node_id: node for node in nodes}
    can._nodes = members
    store.land_deferred(lambda holder: members[holder].membership)
    return members


def build_grid_can(
    dimensionality: int,
    n_nodes: int,
    *,
    fabric=None,
    rng=None,
    node_id_offset: int = 0,
) -> tuple[CANNetwork, GridPlan]:
    """An ``n``-node CAN as its closed-form grid partition, nodes deferred.

    Returns ``(network, plan)``: a :class:`CANNetwork` indistinguishable
    from a protocol-grown one for the data and query planes (zones tile
    the cube, neighbour tables satisfy the CAN neighbour relation, the
    shared level store is attached), plus the :class:`GridPlan` that
    maps keys to owners analytically. The grid's ids are registered on
    the fabric here, all or none; its nodes are built by the first read
    of the topology (see the module docstring).
    """
    plan = GridPlan(
        counts=grid_shape(dimensionality, n_nodes),
        node_id_offset=node_id_offset,
    )
    can = CANNetwork(
        dimensionality, fabric=fabric, rng=rng,
        node_id_offset=node_id_offset,
    )
    can.fabric.register_many(
        np.arange(node_id_offset, node_id_offset + plan.n_cells)
    )
    can._next_id = node_id_offset + plan.n_cells
    can._nodes = _UnbuiltGrid(can, plan)
    return can, plan


@dataclass(frozen=True)
class BulkPublishReport:
    """Accounting for one :func:`bulk_publish` batch."""

    spheres: int
    nodes_touched: int
    messages: int
    bytes_sent: int


def bulk_publish(
    can: CANNetwork,
    plan: GridPlan,
    keys: np.ndarray,
    radii,
    *,
    peer_ids=None,
    origins=None,
    values=None,
    items=None,
    charge: bool = True,
) -> BulkPublishReport:
    """Publish ``n`` spheres into a bulk-built CAN in vectorised passes.

    One :meth:`LevelStore.bulk_add` appends every row (single generation
    bump), one :meth:`GridPlan.owner_nodes` gather finds the owners, and
    each row is held for its owner (:meth:`LevelStore.defer_rows`),
    landing on the memberships in one :meth:`LevelStore.assign_rows`
    pass once the nodes exist. ``items`` is the per-sphere item
    count column Eq. 1 weighs by (zeros when omitted, so every score is
    0.0 — fine for cost measurements only). ``origins``, when given, is the
    per-sphere publishing node id; traffic is charged as one INSERT
    frame per sphere from origin to owner through
    :meth:`Network.transmit_bulk` (owners deliver to themselves when
    ``origins`` is omitted — the orchestrated local-placement bootstrap).

    A batch is refused whole, before the store, a membership or a ledger
    changes: keys must be finite and in the unit cube as for a routed
    insert, every owner a node of ``can`` (on a grid not built yet: an
    id in its range), ``origins`` one registered node per sphere whether
    or not the batch is charged, and the fabric clean when ``charge``.
    An empty batch publishes nothing.
    """
    keys = check_unit_cube(
        check_matrix(keys, "keys", dim=can.dimensionality, min_rows=0), "keys"
    )
    store = can.level_store
    store.check_bulk(keys, radii, items=items, peer_ids=peer_ids, values=values)
    owners = plan._owners(keys)
    senders = owners if origins is None else np.asarray(
        origins, dtype=np.int64
    )
    if senders.shape != owners.shape:
        raise ValidationError("origins must name one node per sphere")
    if owners.size == 0:
        return BulkPublishReport(0, 0, 0, 0)
    grid = can._nodes
    unbuilt = isinstance(grid, _UnbuiltGrid)
    if unbuilt:
        low = grid.plan.node_id_offset
        outside = owners[(owners < low) | (owners >= low + grid.plan.n_cells)]
        if outside.size:
            raise ValidationError(
                f"unknown {type(can).__name__} node {int(outside.min())}"
            )
        nodes_touched = np.count_nonzero(np.bincount(owners - low))
    else:
        distinct = np.unique(owners).tolist()
        for owner in distinct:
            can.node(owner)
        nodes_touched = len(distinct)
    if origins is not None and not charge:
        can.fabric.require_registered(np.unique(senders).tolist(), "source")
    size = vector_message_size(can.dimensionality, scalars=2)
    messages = 0
    if charge:
        # The last call that can refuse, and it does before it charges:
        # as in a routed insert, validate, then charge, then store.
        messages = can.fabric.transmit_bulk(
            MessageKind.INSERT, senders, owners, size
        )
        can.fabric.finish_operation(MessageKind.INSERT, messages)
    rows = store.bulk_add(
        keys, radii, items=items, peer_ids=peer_ids, values=values
    )
    store.defer_rows(rows, owners)
    if not unbuilt:
        store.land_deferred(lambda holder: can.node(holder).membership)
    return BulkPublishReport(
        spheres=int(rows.size),
        nodes_touched=int(nodes_touched),
        messages=int(messages),
        bytes_sent=int(messages * size),
    )
