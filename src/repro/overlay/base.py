"""Abstract overlay interface and receipt types.

Hyper-M "works independently of the underlying overlay structure" (paper
contribution 1); this interface is the contract it relies on: insert a
batch of (possibly sphere-shaped) keyed entries, find all entries
intersecting a query sphere, and maintain published entries in place
(patch live ones, retract dead ones, extend a grown sphere's replica
set — what the delta publish pipeline,
:meth:`HyperMNetwork.publish_delta`, runs on), with hop accounting
throughout.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field

import numpy as np

from repro.geometry.intersection import spheres_intersect
from repro.index import CandidateSet, LevelStore
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


class Overlay(abc.ABC):
    """Minimal overlay contract Hyper-M builds on."""

    #: True when the overlay partitions the key space into geometric
    #: zones (CAN). Zoneless substrates (tree ranges) leave
    #: this False so ``build_loadmap`` reports an empty
    #: zone section instead of fabricating zero-volume rows.
    zone_geometry = False

    #: The columnar :class:`repro.index.LevelStore` holding every
    #: published entry of this overlay; nodes hold row memberships into
    #: it. Every backend's constructor sets it.
    level_store: LevelStore

    @property
    @abc.abstractmethod
    def dimensionality(self) -> int:
        """Dimensionality of the overlay's key space."""

    @property
    @abc.abstractmethod
    def node_ids(self) -> list[int]:
        """Identifiers of all member nodes."""

    @abc.abstractmethod
    def insert_many(self, origin: int, keys, values, radii) -> list[InsertReceipt]:
        """Publish ``(n, m)`` keys from node ``origin``; a receipt per row.

        All rows are validated first, then handled in row order exactly
        as ``n`` :meth:`insert` calls would be.
        """

    def insert(
        self, origin: int, key: np.ndarray, value: object, *, radius: float = 0.0
    ) -> InsertReceipt:
        """Publish an entry from node ``origin``; returns hop accounting."""
        return self.insert_many(origin, [key], [value], [radius])[0]

    @abc.abstractmethod
    def range_query(
        self, origin: int, center: np.ndarray, radius: float
    ) -> RangeReceipt:
        """Find all entries whose spheres intersect the query sphere."""

    @abc.abstractmethod
    def lookup(self, origin: int, key: np.ndarray) -> RangeReceipt:
        """Point query: entries stored at the owner of ``key`` that contain it."""

    # -- in-place maintenance (the delta publish pipeline) -------------------
    # All three account their traffic on the shared fabric.

    @abc.abstractmethod
    def patch_entries(self, origin: int, patches: list) -> tuple[int, int]:
        """Update live entries in place from node ``origin``.

        ``patches`` is a list of ``(entry_id, radius, value)`` triples
        for live entries whose keys are unchanged. Returns
        ``(patch_hops, replica_hops)`` — message hops spent patching
        holders plus hops spent extending replication of grown spheres.
        """

    @abc.abstractmethod
    def retract_entries(self, origin: int, entry_ids: list) -> int:
        """Remove published entries from node ``origin``; returns hops."""

    @abc.abstractmethod
    def extend_replication(self, row: int, holder_ids) -> list[int]:
        """Grow ``row``'s replica set after its radius increased.

        ``holder_ids`` are the nodes currently holding the row. Every
        node the grown sphere newly covers receives one ``REPLICATE``
        message and adds the same store row; existing holders are never
        re-sent anything. Returns the new holder ids.
        """
