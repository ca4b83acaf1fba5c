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
"""

from __future__ import annotations

import numpy as np

from repro import runtime
from repro.exceptions import RoutingError


def _snapshot_distance(zones, point: np.ndarray) -> float:
    """Min torus distance from a neighbour's zone-set snapshot to ``point``.

    A zone that outright contains the point gets distance -1 so it always
    sorts first (torus distance would report 0 for seam-touching zones
    that do *not* contain it).
    """
    if any(zone.contains(point) for zone in zones):
        return -1.0
    return min(zone.torus_distance_to(point) for zone in zones)


def route_to_owner(
    network, start_id: int, point: np.ndarray, *, penalty=None
) -> tuple[int, list[int]]:
    """Route from ``start_id`` to the owner of ``point``.

    Parameters
    ----------
    network:
        A :class:`repro.overlay.can.network.CANNetwork` (duck-typed: needs
        ``node()`` and ``node_ids``).
    start_id:
        Node where the message originates.
    point:
        Target key in the unit cube.
    penalty:
        Optional ``node_id -> float`` quality penalty used as a
        *secondary* sort key: among equally-near next hops the walk
        prefers the lowest-penalty (least drop/retransmit-prone) node.
        The primary greedy metric is untouched, so the owner reached —
        and therefore all stored state — is identical with or without a
        penalty; only the path (and its per-node traffic) may differ.
        ``None`` (the default) reproduces the historical order exactly.

    Returns
    -------
    (owner_id, path)
        ``path`` is the full message trajectory excluding the start node
        (backtracking steps included) — ``len(path)`` is the hop count.
    """
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
        current = network.node(stack[-1])
        if current.contains(point):
            recorder = runtime.current.tracer
            if recorder.enabled:
                recorder.add(
                    routing_hops=len(path), routing_backtracks=backtracks
                )
            return current.node_id, path
        candidates = sorted(
            (
                _snapshot_distance(zones, point),
                penalty(node_id) if penalty is not None else 0.0,
                node_id,
            )
            for node_id, zones in current.neighbors.items()
            if node_id not in visited
        )
        if candidates:
            *__, next_id = candidates[0]
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
