"""Z-order (Morton) helpers for mapping multi-dim keys onto ``[0, 1)``.

The BATON tree is fundamentally one-dimensional: it partitions the
scalar interval ``[0, 1)`` among nodes. Multi-dimensional keys reach it
through the Morton (Z-order) space-filling curve, and sphere-shaped
objects/queries through *covering intervals* — the set of contiguous
Morton ranges covering the sphere's bounding box. :class:`MortonNode` is
the plain store-backed member node BATON and the VBI-tree build on.
"""

from __future__ import annotations

import numpy as np

from repro.overlay.storage import StoreBackedNode


def bits_per_dim(dimensionality: int) -> int:
    """Resolution of the Morton grid: ~24 total bits, at least 3 per dim."""
    return max(3, min(16, 24 // dimensionality))


def morton_code(point: np.ndarray, bits: int) -> int:
    """Map a unit-cube point to its integer Z-order code in ``[0, 2^(m·bits))``.

    Coordinates are quantised to ``bits`` bits and bit-interleaved
    (dimension 0 contributes the most significant bit of each group).
    BATON normalises it to ``[0, 1)`` via :func:`morton_key`.
    """
    p = np.asarray(point, dtype=np.float64)
    m = p.shape[0]
    cells = np.clip((p * (1 << bits)).astype(np.int64), 0, (1 << bits) - 1)
    code = 0
    for bit in range(bits - 1, -1, -1):
        for dim in range(m):
            code = (code << 1) | ((int(cells[dim]) >> bit) & 1)
    return code


def morton_key(point: np.ndarray, bits: int) -> float:
    """Map a unit-cube point to a scalar Z-order key in ``[0, 1)``."""
    p = np.asarray(point, dtype=np.float64)
    m = p.shape[0]
    return morton_code(p, bits) / float(1 << (m * bits))


def covering_intervals(
    lows: np.ndarray,
    highs: np.ndarray,
    bits: int,
    *,
    max_cells: int = 64,
) -> list[tuple[float, float]]:
    """Morton-key intervals covering the box ``[lows, highs]``.

    Recursively subdivides the unit cube; a full ``2^m``-way subdivision
    step keeps children contiguous in Morton order, so each undivided cell
    is one contiguous key interval. Recursion stops when the frontier would
    exceed ``max_cells`` cells (coarser cover = more flooding, never a miss)
    or cells reach the grid resolution. Adjacent intervals are merged.
    """
    m = lows.shape[0]
    intervals: list[tuple[float, float]] = []

    def recurse(cell_lo: np.ndarray, cell_hi: np.ndarray, key_lo: float,
                key_width: float, depth: int, budget: int) -> None:
        # Inclusive bounds: a zero-measure box (radius-0 query) on a grid
        # boundary must still be covered; the slight over-cover for
        # boundary-touching cells only costs extra flooding, never a miss.
        if np.any(cell_hi < lows) or np.any(cell_lo > highs):
            return
        fully_inside = np.all(cell_lo >= lows) and np.all(cell_hi <= highs)
        children = 1 << m
        if fully_inside or depth >= bits or budget < children:
            intervals.append((key_lo, key_lo + key_width))
            return
        mid = (cell_lo + cell_hi) / 2.0
        child_width = key_width / children
        for child_index in range(children):
            child_lo = cell_lo.copy()
            child_hi = cell_hi.copy()
            # Bit ``m-1-dim`` of the child index selects the half of ``dim``
            # (dimension 0 is the most significant interleaved bit).
            for dim in range(m):
                if (child_index >> (m - 1 - dim)) & 1:
                    child_lo[dim] = mid[dim]
                else:
                    child_hi[dim] = mid[dim]
            recurse(child_lo, child_hi, key_lo + child_index * child_width,
                    child_width, depth + 1, budget // children)

    recurse(np.zeros(m), np.ones(m), 0.0, 1.0, 0, max_cells * (1 << m))
    intervals.sort()
    merged: list[tuple[float, float]] = []
    for lo, hi in intervals:
        if merged and lo <= merged[-1][1] + 1e-15:
            merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
        else:
            merged.append((lo, hi))
    return merged


class MortonNode(StoreBackedNode):
    """A member node of a Morton-mapped overlay: just its held rows."""

    def __init__(self, node_id: int):
        self.node_id = node_id
        self._init_storage()
