"""Numerical inversion of Eq. 8: from a result count ``k`` to a radius ``ε``.

Eq. 8 estimates how many items a range query of radius ``ε`` retrieves::

    k = sum_c  frac(sphere_c, sphere_q(ε)) * items_c

The fraction (Eq. 7) is a high-order trigonometric-polynomial function of
``ε`` with no analytical inverse, so — as the paper suggests — we invert it
numerically. The function is monotonically non-decreasing in ``ε``, which
makes bracketed root-finding (``brentq``) both robust and fast; a Newton
variant is exposed too since the paper names Newton's method.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import brentq

from repro.exceptions import ConvergenceError, ValidationError
from repro.geometry.batch import intersection_fraction_batch
from repro.utils.validation import check_positive, check_vector


def _check_columns(
    radii: np.ndarray, items: np.ndarray, dists: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Eq. 8's columns as float64, validated once per array.

    Same predicates and exception type as the sphere dataclass applies per
    object (finite 1-D, ``radius >= 0``, ``items >= 1``), plus the alignment
    a list of objects had by construction.
    """
    radii = check_vector(radii, "radii")
    items = check_vector(items, "items")
    dists = check_vector(dists, "dists")
    if not radii.shape == items.shape == dists.shape:
        raise ValidationError("radii, items and dists must be aligned")
    if np.any(radii < 0) or np.any(items < 1):
        raise ValidationError("radii must be >= 0 and items >= 1")
    return radii, items, dists


def expected_items(
    epsilon: float,
    radii: np.ndarray,
    items: np.ndarray,
    dists: np.ndarray,
    d: int,
) -> float:
    """Eq. 8 right-hand side: expected items inside a radius-``epsilon`` query.

    Evaluated with the vectorized intersection kernel: one
    :func:`repro.geometry.batch.intersection_fraction_batch` call over all
    reachable spheres (this sits inside the k-NN heuristic's root-finding
    loop, which evaluates it dozens of times per level per query).

    Parameters
    ----------
    epsilon:
        Query radius.
    radii, items, dists:
        One row per reachable cluster sphere (all in the same subspace):
        its radius, its item count and the distance from its centre to
        the query point — the columns a look-up returns, not objects.
    d:
        Dimensionality of that subspace, used for the volume formulas.
    """
    check_positive(epsilon, "epsilon", strict=False)
    radii, items, dists = _check_columns(radii, items, dists)
    if not radii.size:
        return 0.0
    fractions = intersection_fraction_batch(radii, epsilon, dists, d)
    return float(fractions @ items)


def estimate_epsilon_for_k(
    k: float,
    radii: np.ndarray,
    items: np.ndarray,
    dists: np.ndarray,
    d: int,
    *,
    tol: float = 1e-6,
    method: str = "brentq",
    max_iter: int = 200,
) -> float:
    """Invert Eq. 8: the smallest ``ε`` whose expected retrieval reaches ``k``.

    When ``k`` meets or exceeds the total number of summarised items, the
    radius that covers every reachable sphere is returned (no larger radius
    can help). With no reachable spheres at all, 0.0 is returned and the
    caller should fall back to flooding.

    Parameters
    ----------
    radii, items, dists, d:
        The reachable spheres' columns, as for :func:`expected_items`.
    method:
        ``"brentq"`` (default, bracketed, always converges on monotone
        input) or ``"newton"`` (the paper's named method, with bisection
        safeguard on overshoot).
    """
    if k < 0:
        raise ValidationError(f"k must be >= 0, got {k}")
    if method not in ("brentq", "newton"):
        raise ValidationError(f"unknown method {method!r}; use 'brentq' or 'newton'")
    radii, items, dists = _check_columns(radii, items, dists)
    if not radii.size or k == 0:
        return 0.0
    total_items = float(items.sum())
    eps_max = float((dists + radii).max())
    if k >= total_items:
        return float(eps_max)

    def gap(eps: float) -> float:
        # Columns are checked once; each root-finding step is one kernel call.
        fractions = intersection_fraction_batch(radii, eps, dists, d)
        return float(fractions @ items) - k

    if gap(eps_max) <= 0.0:
        # Numerical slack at full coverage; the max radius is the answer.
        return float(eps_max)
    if gap(0.0) >= 0.0:
        # Zero-radius spheres exactly at the query already supply k items.
        return 0.0
    if method == "brentq":
        return float(brentq(gap, 0.0, eps_max, xtol=tol, maxiter=max_iter))
    return _safeguarded_newton(gap, 0.0, eps_max, tol, max_iter)


def _safeguarded_newton(
    gap, lo: float, hi: float, tol: float, max_iter: int
) -> float:
    """Newton iteration with finite-difference slope and bisection fallback."""
    x = 0.5 * (lo + hi)
    for _ in range(max_iter):
        g = gap(x)
        if abs(g) < tol:
            return float(x)
        if g > 0:
            hi = x
        else:
            lo = x
        h = max(1e-8, 1e-6 * max(abs(x), 1.0))
        slope = (gap(x + h) - g) / h
        if slope > 0 and math.isfinite(slope):
            step = x - g / slope
        else:
            step = 0.5 * (lo + hi)
        if not lo < step < hi:
            step = 0.5 * (lo + hi)
        if abs(step - x) < tol:
            return float(step)
        x = step
    raise ConvergenceError(
        f"Newton inversion of Eq. 8 did not converge in {max_iter} iterations"
    )
