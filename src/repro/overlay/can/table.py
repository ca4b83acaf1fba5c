"""The CAN zone table: every zone of an overlay as rows of two arrays.

Routing and flooding ask two geometric questions of *every* neighbour at
*every* hop: "how near is your zone set to this point" and "do your
zones meet this ball". Asked of :class:`~repro.overlay.can.zone.Zone`
objects one at a time that is a dozen tiny array allocations per
neighbour per hop; asked of this table it is one vectorised pass per
routed operation, after which the walk reads plain Python floats and a
set. The table is to topology what :class:`repro.index.LevelStore` is to
entries.

A :class:`~repro.overlay.can.network.CANNetwork` builds its table lazily
and drops it on every topology mutation. Neighbour snapshots always equal
the neighbours' current zone sets (every mutation refreshes them), which
is what lets one table of current zones stand in for all of them.

Each question is one kernel over ``n`` points at once (``*_many``: a
publishing peer routes and covers a level's spheres in one pass). Both
are elementwise-identical to the ``Zone`` scalar methods and take their
row norms through the same BLAS dot ``np.linalg.norm`` uses on a vector,
so keys and verdicts are bit-identical to the object walk — ties between
neighbours included — at any batch size.
"""

from __future__ import annotations

import numpy as np

#: Torus images of a point: itself and its copies one period up and down
#: (leading axis; broadcast over ``(n points, zones, d)``).
_SHIFTS = np.array([0.0, 1.0, -1.0])[:, None, None, None]


def _row_norms(gaps: np.ndarray) -> np.ndarray:
    """Euclidean norm over the last axis, rounded as ``np.linalg.norm(row)`` is.

    A stacked (1×d)·(d×1) ``matmul`` runs one BLAS dot per row — the
    kernel behind the 1-d ``norm`` — where ``norm(axis=1)`` or ``einsum``
    sum in another order and differ in the last bit.
    """
    return np.sqrt(np.matmul(gaps[..., None, :], gaps[..., :, None])[..., 0, 0])


class ZoneTable:
    """``lo[n_zones, d]`` / ``hi[n_zones, d]`` grouped by owning node.

    Rows follow the overlay's node order, a node's zones adjacent, so
    per-node answers are ``reduceat`` reductions over ``starts`` (a
    multi-zone node — after a pinwheel takeover — spans several rows).
    """

    def __init__(self, nodes):
        zones = [zone for node in nodes.values() for zone in node.zones]
        self.lo = np.array([zone.lows for zone in zones])
        self.hi = np.array([zone.highs for zone in zones])
        self._outer = self.hi == 1.0
        self._ids = np.fromiter(nodes, dtype=np.int64, count=len(nodes))
        counts = [len(node.zones) for node in nodes.values()]
        self.starts = np.cumsum([0] + counts[:-1])

    def routing_keys_many(self, points: np.ndarray) -> list[dict[int, float]]:
        """Greedy routing key of every node for each row of ``points``.

        -1.0 for the node owning the point (so it always sorts first:
        torus distance reports 0 for seam-touching zones that do *not*
        contain it), else the min torus distance from the node's zones.
        No negative key means no zone contains the point — it lies
        outside the unit cube.
        """
        p = np.asarray(points, dtype=np.float64)[:, None, :]
        inside = np.all(
            (p >= self.lo) & ((p < self.hi) | (self._outer & (p == 1.0))),
            axis=2,
        )
        images = p + _SHIFTS
        per_dim = np.maximum(
            np.maximum(self.lo - images, images - self.hi), 0.0
        ).min(axis=0)
        keys = np.where(inside, -1.0, _row_norms(per_dim))
        keys = np.minimum.reduceat(keys, self.starts, axis=1)
        ids = self._ids.tolist()
        return [dict(zip(ids, row)) for row in keys.tolist()]

    def routing_keys(self, point: np.ndarray) -> dict[int, float]:
        """:meth:`routing_keys_many` for one point."""
        return self.routing_keys_many(np.asarray(point, dtype=np.float64)[None])[0]

    def meeting_many(self, centers: np.ndarray, radii) -> list[set[int]]:
        """Ids of the nodes with a zone meeting each Euclidean ball."""
        c = np.asarray(centers, dtype=np.float64)[:, None, :]
        gaps = np.maximum(np.maximum(self.lo - c, c - self.hi), 0.0)
        radii = np.asarray(radii, dtype=np.float64)[:, None]
        meets = np.logical_or.reduceat(
            _row_norms(gaps) <= radii + 1e-12, self.starts, axis=1
        )
        return [set(self._ids[row].tolist()) for row in meets]

    def meeting(self, center: np.ndarray, radius: float) -> set[int]:
        """:meth:`meeting_many` for one ball."""
        center = np.asarray(center, dtype=np.float64)
        return self.meeting_many(center[None], [radius])[0]
