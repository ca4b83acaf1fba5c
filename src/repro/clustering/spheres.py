"""Cluster-sphere summaries (paper Section 3.1).

Each representative cluster is a sphere: a centroid, a radius (distance to
the farthest member), and a count of the data items it summarises. The
count drives the peer relevance score (Eq. 1); the radius drives sphere
intersection tests and Theorem 3.1 scaling.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.clustering.kmeans import KMeansResult
from repro.exceptions import ValidationError
from repro.utils.validation import check_vector


@dataclass(frozen=True)
class ClusterSphere:
    """A spherical cluster summary: centroid, radius, item count.

    Attributes
    ----------
    centroid:
        Cluster centre in the subspace where the clustering ran.
    radius:
        Distance from the centroid to the farthest member item
        (0.0 for singleton clusters).
    items:
        Number of data items summarised (the paper's ``items_c``).
    """

    centroid: np.ndarray
    radius: float
    items: int

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "centroid", check_vector(self.centroid, "centroid")
        )
        if self.radius < 0 or not np.isfinite(self.radius):
            raise ValidationError(f"radius must be >= 0, got {self.radius}")
        if self.items < 1:
            raise ValidationError(f"items must be >= 1, got {self.items}")

    @property
    def dimensionality(self) -> int:
        """Dimensionality of the subspace the sphere lives in."""
        return int(self.centroid.shape[0])

    def contains(self, point: np.ndarray, *, tol: float = 1e-9) -> bool:
        """True when ``point`` lies inside (or on) the sphere."""
        point = check_vector(point, "point", dim=self.dimensionality)
        return float(np.linalg.norm(point - self.centroid)) <= self.radius + tol

    def distance_to_center(self, point: np.ndarray) -> float:
        """Euclidean distance from ``point`` to the sphere's centroid."""
        point = check_vector(point, "point", dim=self.dimensionality)
        return float(np.linalg.norm(point - self.centroid))

    def intersects_sphere(
        self, center: np.ndarray, radius: float, *, tol: float = 1e-9
    ) -> bool:
        """True when this sphere intersects the sphere ``(center, radius)``."""
        return self.distance_to_center(center) <= self.radius + radius + tol

    def scaled(self, factor: float) -> "ClusterSphere":
        """Return a copy with centroid and radius scaled by ``factor``."""
        if factor <= 0 or not np.isfinite(factor):
            raise ValidationError(f"factor must be > 0, got {factor}")
        return replace(
            self, centroid=self.centroid * factor, radius=self.radius * factor
        )

    def translated(self, offset: np.ndarray) -> "ClusterSphere":
        """Return a copy with the centroid translated by ``offset``."""
        offset = check_vector(offset, "offset", dim=self.dimensionality)
        return replace(self, centroid=self.centroid + offset)


def spheres_from_clustering(
    points: np.ndarray, result: KMeansResult
) -> list[ClusterSphere]:
    """Convert a k-means result over ``points`` into cluster spheres.

    The radius of each sphere is the distance from its centroid to its
    farthest assigned point, so every summarised item is inside its sphere
    (the premise of Theorem 3.1 and the no-false-dismissal argument).
    Empty clusters (possible when k exceeds the number of distinct points)
    are dropped: they summarise nothing.
    """
    points = np.asarray(points, dtype=np.float64)
    labels, centroids = result.labels, result.centroids
    # Every point's distance to its own centroid, then the per-cluster max:
    # the same row norms and maxima as one cluster at a time.
    dists = np.linalg.norm(points - centroids[labels], axis=1)
    radii = np.zeros(result.k)
    np.maximum.at(radii, labels, dists)
    counts = result.cluster_sizes().tolist()
    return [
        ClusterSphere(centroid=centroids[c], radius=radius, items=items)
        for c, (radius, items) in enumerate(zip(radii.tolist(), counts))
        if items > 0
    ]
