"""The overlay's receipt types and its scalar parity oracle.

The overlay contract itself — insert, range query, look-up and in-place
maintenance, with hop accounting throughout — is
:class:`repro.overlay.maintenance.StoreMaintenancePlane`, the one class
every backend extends.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.geometry.intersection import spheres_intersect
from repro.index import CandidateSet
from repro.utils.validation import check_positive, check_vector


@dataclass(frozen=True)
class StoredEntry:
    """One published object: a key point, an extent radius, and a payload.

    ``radius == 0`` is a plain point object (e.g. a raw data item);
    ``radius > 0`` is a cluster-sphere summary.

    Overlay storage itself lives in the columnar
    :class:`repro.index.LevelStore`; this object type remains as the
    scalar parity oracle (its :meth:`intersects` is the reference
    predicate the store's batch filter is pinned to).
    """

    key: np.ndarray
    radius: float
    value: object

    def __post_init__(self) -> None:
        object.__setattr__(self, "key", check_vector(self.key, "key"))
        check_positive(self.radius, "radius", strict=False)

    def intersects(self, center: np.ndarray, radius: float) -> bool:
        """True when this entry's sphere intersects ``(center, radius)``.

        Similarity is Euclidean in the key space: the torus is overlay
        topology only, not data geometry. The boundary (including its
        numerical slack) is shared with the Eq. 1 pruning accounting via
        :func:`repro.geometry.intersection.spheres_intersect`, so every
        entry this filter returns is one the scoring layer counts as a
        surviving candidate.
        """
        dist = float(np.linalg.norm(self.key - np.asarray(center, dtype=np.float64)))
        return spheres_intersect(self.radius, radius, dist)


@dataclass
class InsertReceipt:
    """Accounting for one insertion.

    Attributes
    ----------
    owner:
        Node that owns the key point.
    routing_hops:
        Hops taken by greedy routing to the owner.
    replicas:
        Number of additional nodes the entry was replicated to because its
        sphere overlaps their zones (paper Figure 6); each replica costs
        one hop.
    """

    owner: int
    routing_hops: int
    replicas: int = 0

    @property
    def total_hops(self) -> int:
        """Routing hops plus one hop per replica."""
        return self.routing_hops + self.replicas


@dataclass
class RangeReceipt:
    """Accounting and results for one range query.

    ``entries`` is always a :class:`repro.index.CandidateSet` — row
    indices into the shared level store plus the store generation at
    snapshot time — for ``range_query`` and ``lookup`` alike; read it
    through ``columns()`` / ``values()`` / ``rows``.
    """

    entries: CandidateSet
    routing_hops: int = 0
    flood_hops: int = 0
    nodes_visited: list = field(default_factory=list)

    @property
    def total_hops(self) -> int:
        """Routing plus flooding hops."""
        return self.routing_hops + self.flood_hops
