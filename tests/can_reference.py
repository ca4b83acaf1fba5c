"""The pre-zone-table CAN walks, kept as the oracle for the table.

Before ``overlay/can/table.py`` the routed operations asked their two
geometric questions of ``Zone`` objects, one neighbour snapshot at a
time. These are those walks, unchanged except that they charge nothing
and mutate nothing: ``tests/test_can_zone_table.py`` asserts the table-
driven code in ``src/`` takes the identical path, visits the identical
nodes and picks the identical replicas.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.exceptions import RoutingError


def table_is_current(network) -> bool:
    """True when the zone table's rows are exactly ``all_zones()``, in order."""
    table = network.zone_table()
    zones = [z for zs in network.all_zones().values() for z in zs]
    return np.array_equal(
        table.lo, [z.lows for z in zones]
    ) and np.array_equal(table.hi, [z.highs for z in zones])


def snapshot_distance(zones, point) -> float:
    """Routing key of one neighbour snapshot (-1 when it owns ``point``)."""
    if any(zone.contains(point) for zone in zones):
        return -1.0
    return min(zone.torus_distance_to(point) for zone in zones)


def route_to_owner(network, start_id, point, *, penalty=None):
    """Greedy walk with DFS backtracking over neighbour-snapshot objects."""
    visited = {start_id}
    stack = [start_id]
    path: list[int] = []
    max_steps = max(8 * len(network.node_ids), 64)
    while stack:
        if len(path) > max_steps:
            raise RoutingError(f"routing exceeded {max_steps} steps")
        current = network.node(stack[-1])
        if current.contains(point):
            return current.node_id, path
        candidates = sorted(
            (
                snapshot_distance(zones, point),
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
            if stack:
                path.append(stack[-1])
    raise RoutingError("no route: neighbour graph disconnected?")


def flood_order(network, seeds, center, radius) -> list[int]:
    """Nodes a BFS flood of the ball reaches beyond ``seeds``, in order."""
    visited = set(seeds)
    reached: list[int] = []
    queue = deque(visited)
    while queue:
        current = network.node(queue.popleft())
        for neighbor_id, zones in current.neighbors.items():
            if neighbor_id in visited:
                continue
            if not any(z.intersects_sphere(center, radius) for z in zones):
                continue
            visited.add(neighbor_id)
            reached.append(neighbor_id)
            queue.append(neighbor_id)
    return reached


def grid_neighbor_order(counts, node_id_offset=0) -> dict[int, list[int]]:
    """Insertion order of every bulk-grid node's neighbour table.

    Per dimension, cell by cell, the +1 edge then its reverse — the
    order ``build_grid_can`` has always wired them in. A dict keeps a
    key's first insertion position, and routing breaks distance ties by
    that position, so the order is routing state, not an accident.
    """
    n_cells = int(np.prod(counts))
    order: dict[int, list[int]] = {
        node_id_offset + cell: [] for cell in range(n_cells)
    }

    def note(node_id: int, neighbor_id: int) -> None:
        if neighbor_id not in order[node_id]:
            order[node_id].append(neighbor_id)

    for dim, extent in enumerate(counts):
        if extent < 2:
            continue
        for cell in range(n_cells):
            index = list(np.unravel_index(cell, counts))
            index[dim] = (index[dim] + 1) % extent
            up = int(np.ravel_multi_index(index, counts))
            note(node_id_offset + cell, node_id_offset + up)
            note(node_id_offset + up, node_id_offset + cell)
    return order
