"""Abstract overlay interface, the adaptation plane, and receipt types.

Hyper-M "works independently of the underlying overlay structure" (paper
contribution 1); this interface is the contract it relies on: insert a
batch of (possibly sphere-shaped) keyed entries, find all entries
intersecting a query sphere, and maintain published entries in place
(patch live ones, retract dead ones, extend a grown sphere's replica
set — what the delta publish pipeline,
:meth:`HyperMNetwork.publish_delta`, runs on), with hop accounting
throughout.

One *capability plane* stays optional: :class:`AdaptationPlane`, the
load-adaptation control surface (a per-node load snapshot, hot-owner
rebalancing, replication boost/shed) that only CAN and Kademlia
implement. :class:`repro.overlay.adapt.AdaptationController` never
``hasattr``-probes an overlay for it: it goes through
:func:`adaptation_plane`, which returns the typed plane or a *metered*
``None`` (the ``overlay.plane.adaptation.missing`` counter).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field

import numpy as np

from repro.geometry.intersection import spheres_intersect
from repro.index import CandidateSet, LevelStore
from repro.obs import registry as obs_registry
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
    #: zones (CAN). Zoneless substrates (ring arcs, tree ranges, XOR
    #: buckets) leave this False so ``build_loadmap`` reports an empty
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


class AdaptationPlane(abc.ABC):
    """Load-adaptation control surface consumed by the controller.

    Implementors expose what the control loop needs: a deterministic
    per-node load snapshot, a hot-owner rebalancing action, and
    replication boost/shed for hot/cold spheres. The optional
    ``route_penalty`` hook biases greedy routing tie-breaks towards
    low-penalty nodes (``None`` keeps routing bit-identical).
    """

    #: Optional ``node_id -> float`` penalty installed by the
    #: adaptation controller's quality-routing axis.
    route_penalty = None

    def load_snapshot(self) -> dict[int, int]:
        """Deterministic ``{node_id: total bytes moved}`` load map."""
        bytes_total = self.fabric.load.bytes_total
        return {node_id: bytes_total(node_id) for node_id in self.node_ids}

    @abc.abstractmethod
    def rebalance_hot(
        self, node_id: int, target_id: int | None = None
    ) -> int | None:
        """Shift load off a hot owner; returns the relieving node id.

        Returns ``None`` when no rebalance is possible (no viable
        target, or the hot node's territory cannot be split further).
        """

    @abc.abstractmethod
    def boost_replication(self, row: int, extra: int) -> list[int]:
        """Grant a hot row up to ``extra`` more replicas; new holder ids."""

    @abc.abstractmethod
    def shed_replication(self, row: int) -> list[int]:
        """Drop a cold row's boosted replicas; returns the shedding ids."""


def adaptation_plane(overlay) -> AdaptationPlane | None:
    """The overlay's adaptation plane, or a *metered* ``None``.

    Every miss increments ``overlay.plane.adaptation.missing`` (plus a
    per-backend-class counter), so a deployment whose control loop is
    quietly skipped is visible in any metrics snapshot.
    """
    if isinstance(overlay, AdaptationPlane):
        return overlay
    metrics = obs_registry.metrics()
    metrics.counter("overlay.plane.adaptation.missing").inc()
    metrics.counter(
        f"overlay.plane.adaptation.missing.{type(overlay).__name__}"
    ).inc()
    return None
