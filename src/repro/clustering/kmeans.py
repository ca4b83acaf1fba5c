"""k-means clustering (Lloyd's algorithm with k-means++ seeding).

Implemented from first principles on NumPy: the environment provides no
scikit-learn, and the paper's method only needs the classic algorithm —
chosen there for its invariance to translations and orthogonal transforms
and its simple spherical cluster representation (Section 2.2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exceptions import ClusteringError
from repro.utils.rng import ensure_rng
from repro.utils.validation import check_matrix


@dataclass(frozen=True)
class KMeansResult:
    """Outcome of a k-means run.

    Attributes
    ----------
    centroids:
        ``(k, d)`` array of cluster centres.
    labels:
        ``(n,)`` integer array assigning each input row to a centroid.
    inertia:
        Sum of squared distances of points to their assigned centroids.
    iterations:
        Number of Lloyd iterations executed.
    converged:
        True when assignments stabilised before ``max_iter``.
    """

    centroids: np.ndarray
    labels: np.ndarray
    inertia: float
    iterations: int
    converged: bool

    @property
    def k(self) -> int:
        """Number of clusters."""
        return int(self.centroids.shape[0])

    def cluster_sizes(self) -> np.ndarray:
        """``(k,)`` array with the number of points per cluster.

        Every entry is >= 1: empty clusters are repaired before a result
        is returned (:func:`_resolve_empty_clusters`), so downstream
        sphere construction never sees a memberless centroid.
        """
        return np.bincount(self.labels, minlength=self.k)


def _pairwise_sq_dists(points: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """``(n, k)`` squared Euclidean distances, computed without n*k*d temporaries."""
    # ||p - c||^2 = ||p||^2 - 2 p.c + ||c||^2
    p_sq = np.einsum("ij,ij->i", points, points)[:, None]
    c_sq = np.einsum("ij,ij->i", centroids, centroids)[None, :]
    cross = points @ centroids.T
    d2 = p_sq - 2.0 * cross + c_sq
    np.maximum(d2, 0.0, out=d2)
    return d2


def _kmeans_pp_init(
    points: np.ndarray, k: int, rng: np.random.Generator
) -> np.ndarray:
    """k-means++ seeding: spread initial centroids by D^2 sampling."""
    n = points.shape[0]
    centroids = np.empty((k, points.shape[1]), dtype=np.float64)
    first = int(rng.integers(n))
    centroids[0] = points[first]
    diff = points - centroids[0]
    closest_sq = np.einsum("ij,ij->i", diff, diff)
    for i in range(1, k):
        total = closest_sq.sum()
        if total <= 0.0:
            # All remaining points coincide with chosen centroids; fall back
            # to uniform sampling so we still return k centroids.
            choice = int(rng.integers(n))
        else:
            choice = int(rng.choice(n, p=closest_sq / total))
        centroids[i] = points[choice]
        diff = points - centroids[i]
        np.minimum(closest_sq, np.einsum("ij,ij->i", diff, diff), out=closest_sq)
    return centroids


def kmeans(
    points: np.ndarray,
    k: int,
    *,
    max_iter: int = 100,
    tol: float = 1e-7,
    n_init: int = 1,
    rng: int | None | np.random.Generator = None,
) -> KMeansResult:
    """Cluster ``points`` into ``k`` groups with Lloyd's algorithm.

    Parameters
    ----------
    points:
        ``(n, d)`` data matrix, ``n >= k``.
    k:
        Number of clusters. If ``k`` exceeds the number of *distinct*
        points, duplicate centroids are repaired into singleton clusters
        where possible.
    max_iter:
        Maximum Lloyd iterations per restart.
    tol:
        Convergence threshold on the total centroid movement (squared).
    n_init:
        Number of k-means++ restarts; the lowest-inertia run wins.
    rng:
        Seed or generator for reproducible seeding.

    Returns
    -------
    KMeansResult
    """
    points = check_matrix(points, "points")
    n = points.shape[0]
    if k < 1:
        raise ClusteringError(f"k must be >= 1, got {k}")
    if k > n:
        raise ClusteringError(f"k={k} exceeds number of points n={n}")
    if n_init < 1:
        raise ClusteringError(f"n_init must be >= 1, got {n_init}")
    generator = ensure_rng(rng)

    best: KMeansResult | None = None
    for _ in range(n_init):
        result = _kmeans_single(points, k, max_iter, tol, generator)
        if best is None or result.inertia < best.inertia:
            best = result
    assert best is not None
    return best


def _kmeans_single(
    points: np.ndarray,
    k: int,
    max_iter: int,
    tol: float,
    rng: np.random.Generator,
) -> KMeansResult:
    centroids = _kmeans_pp_init(points, k, rng)
    labels = np.zeros(points.shape[0], dtype=np.int64)
    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        d2 = _pairwise_sq_dists(points, centroids)
        new_labels = d2.argmin(axis=1)
        new_centroids = _update_centroids(points, new_labels, centroids, d2, rng)
        movement = float(((new_centroids - centroids) ** 2).sum())
        same_assignment = bool(np.array_equal(new_labels, labels)) and iterations > 1
        centroids = new_centroids
        labels = new_labels
        if movement <= tol or same_assignment:
            converged = True
            break
    d2 = _pairwise_sq_dists(points, centroids)
    labels = d2.argmin(axis=1)
    # The final argmin can silently undo the empty-cluster repairs made
    # inside the loop (argmin tie-breaks to the lowest index, so a point a
    # repaired centroid was re-seeded on may snap back to a duplicate
    # centroid, leaving the repaired cluster empty again). Re-run the
    # repair on the *final* assignment so the invariant holds on what we
    # actually return.
    labels = _resolve_empty_clusters(points, centroids, labels, d2)
    counts = np.bincount(labels, minlength=centroids.shape[0])
    assert counts.min() >= 1, "k-means produced an empty cluster"
    inertia = float(d2[np.arange(points.shape[0]), labels].sum())
    return KMeansResult(
        centroids=centroids,
        labels=labels,
        inertia=inertia,
        iterations=iterations,
        converged=converged,
    )


def _resolve_empty_clusters(
    points: np.ndarray,
    centroids: np.ndarray,
    labels: np.ndarray,
    d2: np.ndarray,
) -> np.ndarray:
    """Give every cluster at least one member after the final assignment.

    Preference order per empty cluster:

    1. a point *tied* at its current minimal distance with the empty
       centroid — the duplicate-centroid case the final argmin creates
       when it snaps a repaired cluster's seed point back to a lower
       cluster index; moving such a point changes no distances;
    2. otherwise, the nearest point from any multi-member cluster, with
       the centroid re-seeded on it (so the moved point is trivially
       nearest to its new cluster).

    Mutates ``labels``, ``centroids`` and ``d2`` in place and returns
    ``labels``. Always succeeds because ``n >= k``.
    """
    n, k = d2.shape
    counts = np.bincount(labels, minlength=k)
    assigned = d2[np.arange(n), labels]
    for idx in np.flatnonzero(counts == 0):
        movable = counts[labels] > 1
        tied = movable & (d2[:, idx] <= assigned + 1e-12)
        if tied.any():
            victim = int(np.flatnonzero(tied)[0])
        else:
            candidates = np.where(movable, d2[:, idx], np.inf)
            victim = int(candidates.argmin())
            centroids[idx] = points[victim]
            diff = points - centroids[idx]
            d2[:, idx] = np.einsum("ij,ij->i", diff, diff)
        counts[labels[victim]] -= 1
        labels[victim] = idx
        counts[idx] += 1
        assigned[victim] = d2[victim, idx]
    return labels


def _update_centroids(
    points: np.ndarray,
    labels: np.ndarray,
    old_centroids: np.ndarray,
    d2: np.ndarray,
    rng: np.random.Generator,
) -> np.ndarray:
    """Recompute centroids; re-seed any emptied cluster on its farthest point."""
    k = old_centroids.shape[0]
    counts = np.bincount(labels, minlength=k).astype(np.float64)
    # bincount adds a cluster's values in row order from 0.0, as add.at did.
    sums = np.column_stack(
        [np.bincount(labels, weights=col, minlength=k) for col in points.T]
    )
    new_centroids = old_centroids.copy()
    nonempty = counts > 0
    new_centroids[nonempty] = sums[nonempty] / counts[nonempty, None]
    for idx in np.flatnonzero(~nonempty):
        # Classic empty-cluster repair: steal the point currently farthest
        # from its assigned centroid.
        assigned_d2 = d2[np.arange(points.shape[0]), labels]
        victim = int(assigned_d2.argmax())
        new_centroids[idx] = points[victim]
        labels[victim] = idx
    return new_centroids
