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

Both kernels are elementwise-identical to the ``Zone`` scalar methods and
take their row norms through the same BLAS dot ``np.linalg.norm`` uses on
a vector, so keys and verdicts are bit-identical to the object walk — ties
between neighbours included.
"""

from __future__ import annotations

import numpy as np

#: Torus images of a point: itself and its copies one period up and down.
_SHIFTS = np.array([0.0, 1.0, -1.0])[:, None, None]


def _row_norms(gaps: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row, rounded as ``np.linalg.norm(row)`` is.

    A stacked (1×d)·(d×1) ``matmul`` runs one BLAS dot per row — the
    kernel behind the 1-d ``norm`` — where ``norm(axis=1)`` or ``einsum``
    sum in another order and differ in the last bit.
    """
    return np.sqrt(np.matmul(gaps[:, None, :], gaps[:, :, None])[:, 0, 0])


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

    def routing_keys(self, point: np.ndarray) -> dict[int, float]:
        """Greedy routing key of every node for ``point``.

        -1.0 for the node owning ``point`` (so it always sorts first:
        torus distance reports 0 for seam-touching zones that do *not*
        contain it), else the min torus distance from the node's zones.
        No negative key means no zone contains the point — it lies
        outside the unit cube.
        """
        p = np.asarray(point, dtype=np.float64)
        inside = np.all(
            (p >= self.lo) & ((p < self.hi) | (self._outer & (p == 1.0))),
            axis=1,
        )
        images = p + _SHIFTS
        per_dim = np.maximum(
            np.maximum(self.lo - images, images - self.hi), 0.0
        ).min(axis=0)
        keys = np.where(inside, -1.0, _row_norms(per_dim))
        keys = np.minimum.reduceat(keys, self.starts)
        return dict(zip(self._ids.tolist(), keys.tolist()))

    def meeting(self, center: np.ndarray, radius: float) -> set[int]:
        """Ids of the nodes with a zone meeting the Euclidean ball."""
        c = np.asarray(center, dtype=np.float64)
        gaps = np.maximum(np.maximum(self.lo - c, c - self.hi), 0.0)
        meets = _row_norms(gaps) <= radius + 1e-12
        meets = np.logical_or.reduceat(meets, self.starts)
        return set(self._ids[meets].tolist())
