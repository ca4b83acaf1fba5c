"""Greedy CAN routing with backtracking.

At each step the message moves to the unvisited neighbour whose zone set
is closest (in torus distance) to the target point — the original CAN
forwarding rule. Pure greedy can dead-end in rare corner configurations:
on the torus, several zones may sit at distance zero from the target (they
touch it across the wraparound seam) without containing it, and the
tie-broken walk can paint itself into a corner. Real CAN deployments
recover with perimeter/expanding-ring strategies; we use depth-first
backtracking, which is guaranteed to reach the owner on the (connected)
neighbour graph. Backtrack traversals are real messages and are counted
as hops.

Both walks here — the routed one and the breadth-first :func:`flood`
that range queries and sphere replication share — take their geometry
from one :class:`~repro.overlay.can.table.ZoneTable` pass per operation
(or per ``insert_many`` batch) and then only look node ids up.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro import runtime
from repro.exceptions import RoutingError, ValidationError


def route_to_owner(
    network, start_id: int, point: np.ndarray, *, penalty=None, keys=None
) -> tuple[int, list[int]]:
    """Route from ``start_id`` to the owner of ``point``.

    Parameters
    ----------
    network:
        A :class:`repro.overlay.can.network.CANNetwork` (duck-typed: needs
        ``node()``, ``node_ids`` and ``zone_table()``).
    start_id:
        Node where the message originates.
    point:
        Target key in the unit cube (:class:`ValidationError` otherwise).
    penalty:
        Optional ``node_id -> float`` quality penalty used as a
        *secondary* sort key: among equally-near next hops the walk
        prefers the lowest-penalty (least drop/retransmit-prone) node.
        The primary greedy metric is untouched, so the owner reached —
        and therefore all stored state — is identical with or without a
        penalty; only the path (and its per-node traffic) may differ.
        ``None`` (the default) reproduces the historical order exactly.
    keys:
        ``point``'s row of a batched :meth:`ZoneTable.routing_keys_many`.

    Returns
    -------
    (owner_id, path)
        ``path`` is the full message trajectory excluding the start node
        (backtracking steps included) — ``len(path)`` is the hop count.
    """
    if keys is None:
        keys = network.zone_table().routing_keys(point)
    if min(keys.values()) >= 0.0:
        raise ValidationError(
            f"no zone contains {point!r}: it lies outside the unit cube"
        )
    visited = {start_id}
    stack = [start_id]
    path: list[int] = []
    backtracks = 0
    max_steps = max(8 * len(network.node_ids), 64)
    while stack:
        if len(path) > max_steps:
            raise RoutingError(
                f"routing exceeded {max_steps} steps towards {point!r}"
            )
        current_id = stack[-1]
        if keys[current_id] < 0.0:
            recorder = runtime.current.tracer
            if recorder.enabled:
                recorder.add(
                    routing_hops=len(path), routing_backtracks=backtracks
                )
            return current_id, path
        candidates = [
            (
                keys[node_id],
                penalty(node_id) if penalty is not None else 0.0,
                node_id,
            )
            for node_id in network.node(current_id).neighbors
            if node_id not in visited
        ]
        if candidates:
            *__, next_id = min(candidates)
            visited.add(next_id)
            stack.append(next_id)
            path.append(next_id)
        else:
            stack.pop()
            backtracks += 1
            if stack:
                path.append(stack[-1])  # backtrack message
    raise RoutingError(
        f"no route to the owner of {point!r}: neighbour graph disconnected?"
    )


def flood(network, seeds, meets: set[int]):
    """Breadth-first flood from ``seeds`` across the nodes in ``meets``.

    Yields one ``(sender_id, receiver_id)`` edge per newly reached node,
    in message order; the caller charges the fabric. ``meets`` is
    :meth:`ZoneTable.meeting` for the flooded ball — a convex region,
    hence connected in the neighbour graph, so the flood is complete.
    """
    visited = set(seeds)
    queue = deque(visited)
    while queue:
        current_id = queue.popleft()
        for neighbor_id in network.node(current_id).neighbors:
            if neighbor_id in meets and neighbor_id not in visited:
                visited.add(neighbor_id)
                queue.append(neighbor_id)
                yield current_id, neighbor_id
