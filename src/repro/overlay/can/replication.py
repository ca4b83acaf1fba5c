"""Sphere replication across overlapping zones (paper Figure 6).

CAN indexes points; a cluster *sphere* may overlap several zones, and a
query landing in an overlapped zone must still find it. The paper accepts
replication as unavoidable: after routing an entry to its centroid's owner,
the entry is propagated hop-by-hop to every node whose zone the sphere
intersects. Each propagation costs one overlay hop, which is exactly the
replication overhead Figure 8a measures.
"""

from __future__ import annotations

from repro import runtime
from repro.net.messages import MessageKind, vector_message_size
from repro.overlay.can.routing import flood


def _spread_row(network, row: int, holder_ids) -> list[int]:
    """Flood ``row`` from its holders to every other sphere-overlapping node.

    Each newly covered node receives one ``REPLICATE`` message and adds
    the *same* store row to its membership — replication is
    multi-membership, not object copies. Returns the new holder ids.
    """
    store = network.level_store
    key = store.key_of(row)
    size = vector_message_size(key.shape[0], scalars=2)
    cover = network._cover(key, store.radius_of(row))
    added: list[int] = []
    for sender_id, neighbor_id in flood(network, holder_ids, cover):
        network.fabric.transmit(
            sender_id, neighbor_id, MessageKind.REPLICATE, size
        )
        network.node(neighbor_id).add_row(row)
        added.append(neighbor_id)
    return added


def replicate_sphere(network, owner_id: int, row: int) -> list[int]:
    """Propagate a stored row from its owner to all zone-overlapping nodes.

    Breadth-first over neighbour links, crossing only nodes whose zones
    intersect the row's sphere (that region is convex, so it is connected
    in the neighbour graph). Returns the replica node ids (owner
    excluded); one ``REPLICATE`` hop is charged per replica.
    """
    replicas = _spread_row(network, row, [owner_id])
    recorder = runtime.current.tracer
    if recorder.enabled:
        recorder.add(replica_hops=len(replicas))
    return replicas


def extend_replication(network, row: int, holder_ids) -> list[int]:
    """Grow a row's replica set after its sphere's radius increased.

    The delta publish path patches radii in place; a grown sphere may now
    overlap zones whose nodes do not yet hold the row. Breadth-first from
    *all* current holders (their union already covers the old sphere, and
    the grown intersection region is convex, hence connected through
    them). Existing holders are never re-sent anything — that is the
    saving over tombstone + re-insert. Returns the new replica node ids.
    """
    added = _spread_row(network, row, holder_ids)
    recorder = runtime.current.tracer
    if recorder.enabled and added:
        recorder.add(replica_hops=len(added))
    return added


def boost_replication(network, row: int, extra: int) -> list[int]:
    """Raise a hot row's replication degree by up to ``extra`` copies.

    The adaptation controller's hot-sphere action: neighbours of the
    current holders that do not yet hold the row adopt it, least-loaded
    first (LoadLedger byte totals, node id as the deterministic
    tie-break). Each new copy is one ``REPLICATE`` message from an
    adjacent holder. Boosted copies are pure extras — queries dedup the
    shared row, so results are unchanged (Theorem 4.1 set equality) —
    and they pre-position the row for radius growth and zone handoffs.
    Returns the new holder ids.
    """
    if extra < 1:
        return []
    store = network.level_store
    size = vector_message_size(store.key_of(row).shape[0], scalars=2)
    holders = sorted(
        node_id
        for node_id in network.node_ids
        if row in network.node(node_id).membership
    )
    frontier: set[int] = set()
    for holder_id in holders:
        for neighbor_id in network.node(holder_id).neighbors:
            if neighbor_id not in holders:
                frontier.add(neighbor_id)
    chosen = sorted(frontier, key=network.fabric.load.least_loaded)[:extra]
    added: list[int] = []
    for node_id in chosen:
        source = next(
            h for h in holders if node_id in network.node(h).neighbors
        )
        network.fabric.transmit(
            source, node_id, MessageKind.REPLICATE, size
        )
        if network.node(node_id).add_row(row):
            added.append(node_id)
    recorder = runtime.current.tracer
    if recorder.enabled and added:
        recorder.add(replica_hops=len(added))
    return added


def shed_replication(network, row: int) -> list[int]:
    """Drop a cold row's *boosted* replicas; returns the shedding node ids.

    Only copies on nodes whose zones do **not** overlap the row's sphere
    are released — those are exactly the boosted extras (and stale
    holders left behind by zone rebalancing). Zone-overlapping holders
    are the inviolable baseline: a query ball meeting the sphere only
    inside one holder's zone must still find the row there, so shedding
    below that set would break Theorem 4.1 set equality. The owner zone
    contains the sphere's centre, so the refcount can never reach zero
    here.
    """
    store = network.level_store
    key = store.key_of(row)
    radius = store.radius_of(row)
    holders = sorted(
        node_id
        for node_id in network.node_ids
        if row in network.node(node_id).membership
    )
    doomed = [
        node_id
        for node_id in holders
        if not network.node(node_id).intersects_sphere(key, radius)
    ]
    if len(doomed) == len(holders) and doomed:
        # Degenerate float-boundary row overlapping no zone at all: keep
        # one holder so the entry is never tombstoned by adaptation.
        doomed = doomed[1:]
    for node_id in doomed:
        network.node(node_id).membership.discard(row)
    return doomed
