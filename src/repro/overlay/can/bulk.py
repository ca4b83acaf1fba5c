"""Bulk CAN construction: the analytic grid bootstrap for scale runs.

Growing a CAN one :meth:`~repro.overlay.can.network.CANNetwork.join` at
a time is the *protocol*: each join routes to a zone owner and splits
its zone, which is O(routing hops) per node and quadratic-ish overall —
fine at hundreds of nodes, hopeless at 10⁵. But the *partition* that a
full sequence of uniform midpoint splits converges to is known in closed
form: a power-of-two grid whose per-dimension cell counts follow CAN's
round-robin longest-side split order. This module materialises that end
state directly:

* :func:`grid_shape` — the per-dimension cell counts for ``n`` nodes
  (``n`` rounded up to a power of two);
* :func:`build_grid_can` — a fully wired :class:`CANNetwork` whose
  nodes own the grid cells, with neighbour tables derived from grid
  adjacency (±1 per dimension, torus wrap) instead of O(n²) geometry
  scans — validated against :meth:`CANNetwork._rebuild_all_neighbors`
  in the test suite;
* :func:`bulk_publish` — vectorised sphere publication: everything is
  validated before anything changes, then :meth:`LevelStore.bulk_add`
  appends every row in one pass, owners come from one
  ``floor(key · counts)`` gather, memberships land in one
  :meth:`LevelStore.assign_rows` refcount pass, and traffic is accounted
  through the fabric's batched :meth:`~repro.net.network.Network.transmit_bulk`.

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

from dataclasses import dataclass

import numpy as np

from repro.exceptions import ValidationError
from repro.net.messages import MessageKind, vector_message_size
from repro.overlay.can.network import CANNetwork
from repro.overlay.can.node import CANNode
from repro.overlay.can.zone import Zone
from repro.utils.validation import check_matrix, check_unit_cube


def grid_shape(dimensionality: int, n_nodes: int) -> tuple[int, ...]:
    """Per-dimension cell counts of the ``n_nodes``-cell CAN grid.

    ``n_nodes`` is rounded up to the next power of two (``2**s`` cells);
    the ``s`` binary splits are dealt round-robin starting at dimension
    0, matching :meth:`Zone.split`'s longest-side, lowest-index
    tie-break under uniform midpoint splitting — so the grid is exactly
    the partition an idealised join sequence converges to.
    """
    if dimensionality < 1:
        raise ValidationError(
            f"dimensionality must be >= 1, got {dimensionality}"
        )
    if n_nodes < 1:
        raise ValidationError(f"n_nodes must be >= 1, got {n_nodes}")
    splits = (int(n_nodes) - 1).bit_length()
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

        Keys on the outer face (coordinate exactly 1.0) clamp into the
        last cell, mirroring :meth:`Zone.contains`' closed outer
        boundary.
        """
        keys = np.asarray(keys, dtype=np.float64)
        if keys.ndim != 2 or keys.shape[1] != len(self.counts):
            raise ValidationError(
                f"keys shape {keys.shape} does not match a "
                f"{len(self.counts)}-d grid"
            )
        counts = np.asarray(self.counts, dtype=np.int64)
        cells = np.clip(
            np.floor(keys * counts).astype(np.int64), 0, counts - 1
        )
        flat = np.ravel_multi_index(tuple(cells.T), self.counts)
        return self.node_id_offset + flat


def build_grid_can(
    dimensionality: int,
    n_nodes: int,
    *,
    fabric=None,
    rng=None,
    node_id_offset: int = 0,
) -> tuple[CANNetwork, GridPlan]:
    """Materialise an ``n``-node CAN as its closed-form grid partition.

    Returns ``(network, plan)``: a :class:`CANNetwork` indistinguishable
    from a protocol-grown one for the data and query planes (zones tile
    the cube, neighbour tables satisfy the CAN neighbour relation, the
    shared level store is attached), plus the :class:`GridPlan` that
    maps keys to owners analytically. The cells are validated like any
    zone, all at once (:meth:`Zone.from_rows`).
    """
    counts = grid_shape(dimensionality, n_nodes)
    n_cells = int(np.prod(counts))
    can = CANNetwork(
        dimensionality, fabric=fabric, rng=rng,
        node_id_offset=node_id_offset,
    )
    counts_arr = np.asarray(counts, dtype=np.float64)
    cell_index = np.stack(
        np.unravel_index(np.arange(n_cells), counts), axis=1
    )
    zones = Zone.from_rows(
        cell_index / counts_arr, (cell_index + 1) / counts_arr
    )
    nodes: list[CANNode] = []
    # Populate the overlay directly (same-package bootstrap): each cell
    # becomes one node, registered on the fabric like a joined node.
    for cell, zone in enumerate(zones):
        node = CANNode(node_id_offset + cell, zone)
        can._admit(node)
        nodes.append(node)
    can._next_id = node_id_offset + n_cells

    # Grid adjacency: ±1 (mod counts) in exactly one dimension. Each
    # +1 edge covers the matching -1 edge of its other endpoint;
    # dimensions of extent 1 have no distinct neighbour.
    for d in range(dimensionality):
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
    return can, GridPlan(counts=counts, node_id_offset=node_id_offset)


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
    memberships land grouped per owner in one
    :meth:`LevelStore.assign_rows` pass. ``items`` is the per-sphere item
    count column Eq. 1 weighs by (zeros when omitted, so every score is
    0.0 — fine for cost measurements only). ``origins``, when given, is the
    per-sphere publishing node id; traffic is charged as one INSERT
    frame per sphere from origin to owner through
    :meth:`Network.transmit_bulk` (owners deliver to themselves when
    ``origins`` is omitted — the orchestrated local-placement bootstrap).

    A batch is refused whole, before the store, a membership or a ledger
    changes: keys must be finite and in the unit cube as for a routed
    insert, ``origins`` one registered node per sphere, and the fabric
    clean when ``charge``. An empty batch publishes nothing.
    """
    keys = check_unit_cube(
        check_matrix(keys, "keys", dim=can.dimensionality, min_rows=0), "keys"
    )
    store = can.level_store
    store.check_bulk(keys, radii, items=items, peer_ids=peer_ids, values=values)
    owners = plan.owner_nodes(keys)
    senders = owners if origins is None else np.asarray(
        origins, dtype=np.int64
    )
    if senders.shape != owners.shape:
        raise ValidationError("origins must name one node per sphere")
    if owners.size == 0:
        return BulkPublishReport(0, 0, 0, 0)
    order = np.argsort(owners, kind="stable")
    sorted_owners = owners[order]
    starts = np.concatenate(
        ([0], np.flatnonzero(np.diff(sorted_owners)) + 1, [owners.size])
    )
    memberships = [
        can.node(owner).membership
        for owner in sorted_owners[starts[:-1]].tolist()
    ]
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
    store.assign_rows(memberships, rows[order], starts)
    return BulkPublishReport(
        spheres=int(rows.size),
        nodes_touched=len(memberships),
        messages=int(messages),
        bytes_sent=int(messages * size),
    )
