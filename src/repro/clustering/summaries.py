"""Per-peer, per-subspace cluster summaries — Hyper-M's publishable unit.

This module composes the wavelet decomposition with k-means (paper
Figure 2, steps *i1* and *i2*): a peer's item matrix is decomposed into the
``L`` coarsest wavelet subspaces and clustered independently in each,
producing the cluster spheres that step *i3* inserts into each overlay.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import runtime
from repro.clustering.kmeans import kmeans
from repro.clustering.spheres import ClusterSphere, spheres_from_clustering
from repro.exceptions import ClusteringError
from repro.utils.rng import ensure_rng, spawn_rngs
from repro.utils.validation import check_matrix
from repro.wavelets.multiresolution import (
    Level,
    decompose_dataset,
    publication_levels,
)


@dataclass(frozen=True)
class PeerSummary:
    """All cluster spheres a peer publishes, grouped by wavelet subspace.

    Attributes
    ----------
    dimensionality:
        Original data dimensionality ``d``.
    levels:
        Subspaces the peer publishes into, coarse to fine.
    spheres:
        Mapping :class:`Level` -> list of :class:`ClusterSphere` in that
        subspace's coordinates.
    labels:
        Mapping :class:`Level` -> ``(n,)`` array assigning each local item
        to a sphere index (used when answering direct retrieval requests).
    """

    dimensionality: int
    levels: tuple
    spheres: dict
    labels: dict

    @property
    def total_spheres(self) -> int:
        """Total number of spheres across all levels."""
        return sum(len(s) for s in self.spheres.values())

    def items_summarised(self, level: Level) -> int:
        """Number of items covered by the spheres at ``level``."""
        return sum(s.items for s in self.spheres[level])


def summarize_peer_data(
    data: np.ndarray,
    *,
    n_clusters: int,
    levels_used: int,
    rng: int | None | np.random.Generator = None,
    n_init: int = 1,
) -> PeerSummary:
    """Decompose and cluster a peer's items into publishable summaries.

    Parameters
    ----------
    data:
        ``(n, d)`` matrix of the peer's items, ``d`` a power of two, values
        in the unit cube (feature histograms are normalised upstream).
    n_clusters:
        The paper's ``K_p``: clusters per subspace. Capped at ``n`` when a
        peer holds fewer items than requested clusters.
    levels_used:
        The paper's ``L``: number of coarsest subspaces to publish into
        (4 in the paper's operating point).
    rng:
        Seed or generator; each level clusters with an independent child
        stream so levels don't perturb one another.
    n_init:
        k-means++ restarts per level.
    """
    data = check_matrix(data, "data")
    if n_clusters < 1:
        raise ClusteringError(f"n_clusters must be >= 1, got {n_clusters}")
    n = data.shape[0]
    levels = tuple(publication_levels(data.shape[1], levels_used))
    recorder = runtime.current.tracer
    with recorder.span("dwt", items=n, dimensionality=data.shape[1]):
        decomposition = decompose_dataset(data)
    child_rngs = spawn_rngs(ensure_rng(rng), len(levels))

    spheres: dict = {}
    labels: dict = {}
    k = min(n_clusters, n)
    for level, child in zip(levels, child_rngs, strict=True):
        coeffs = decomposition[level]
        with recorder.span(
            f"kmeans[{level}]", level=str(level), k=k, items=n
        ) as span:
            result = kmeans(coeffs, k, rng=child, n_init=n_init)
            spheres[level] = spheres_from_clustering(coeffs, result)
            if len(spheres[level]) != result.k:
                # k-means guarantees non-empty clusters; a dropped sphere
                # here would mean items silently vanish from the index.
                raise ClusteringError(
                    f"level {level}: {result.k - len(spheres[level])} empty "
                    "cluster(s) produced degenerate spheres"
                )
            if recorder.enabled:
                span.set(
                    clusters=len(spheres[level]),
                    mean_radius=float(
                        np.mean([s.radius for s in spheres[level]])
                    ),
                )
        labels[level] = result.labels
    return PeerSummary(
        dimensionality=data.shape[1],
        levels=levels,
        spheres=spheres,
        labels=labels,
    )
