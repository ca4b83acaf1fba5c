"""CAN zones: axis-aligned boxes tiling the unit torus.

Zones never wrap around the torus boundary themselves (splitting a
non-wrapping box yields non-wrapping boxes), but *distances* and
*neighbour tests* are torus-aware: coordinate 0.99 abuts coordinate 0.0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exceptions import ValidationError
from repro.utils.validation import check_matrix, check_vector


@dataclass(frozen=True)
class Zone:
    """A half-open box ``[lows, highs)`` in the unit cube.

    The upper boundary ``highs == 1.0`` is treated as closed so the zones
    jointly cover every point of ``[0, 1]^m``.

    Every zone is validated: ``Zone(lows, highs)`` checks one box,
    :meth:`from_rows` checks ``n`` boxes in one array pass. There is no
    constructor that skips the check. Both adopt and freeze the arrays
    they are given.
    """

    lows: np.ndarray
    highs: np.ndarray

    def __post_init__(self) -> None:
        lows = check_vector(self.lows, "lows")
        highs = check_vector(self.highs, "highs", dim=lows.shape[0])
        if np.any(lows < 0.0) or np.any(highs > 1.0) or np.any(lows >= highs):
            raise ValidationError(
                "zone must satisfy 0 <= lows < highs <= 1 in every dimension"
            )
        lows.setflags(write=False)
        highs.setflags(write=False)
        object.__setattr__(self, "lows", lows)
        object.__setattr__(self, "highs", highs)

    @classmethod
    def from_rows(cls, lows: np.ndarray, highs: np.ndarray) -> list["Zone"]:
        """One zone per row of two ``(n, d)`` arrays, validated once.

        The whole-array form of ``__post_init__``: the same predicates
        (finite, equal shape, ``0 <= lows < highs <= 1``) raising the
        same exception types, applied to all ``n`` boxes in one pass
        instead of ``n`` times. Each zone's ``lows`` / ``highs`` are
        read-only row views of the two frozen arrays.
        """
        lows = check_matrix(lows, "lows")
        highs = check_matrix(highs, "highs", dim=lows.shape[1])
        if highs.shape != lows.shape:
            raise ValidationError("lows and highs must have one row per zone")
        if np.any(lows < 0.0) or np.any(highs > 1.0) or np.any(lows >= highs):
            raise ValidationError(
                "zone must satisfy 0 <= lows < highs <= 1 in every dimension"
            )
        lows.setflags(write=False)
        highs.setflags(write=False)
        zones = []
        for low, high in zip(lows, highs):
            zone = object.__new__(cls)
            object.__setattr__(zone, "lows", low)
            object.__setattr__(zone, "highs", high)
            zones.append(zone)
        return zones

    # -- basic geometry ------------------------------------------------------

    @staticmethod
    def full(dimensionality: int) -> "Zone":
        """The whole unit cube."""
        if dimensionality < 1:
            raise ValidationError(
                f"dimensionality must be >= 1, got {dimensionality}"
            )
        return Zone(np.zeros(dimensionality), np.ones(dimensionality))

    @property
    def dimensionality(self) -> int:
        """Number of key-space dimensions."""
        return int(self.lows.shape[0])

    @property
    def volume(self) -> float:
        """Lebesgue volume of the box."""
        return float(np.prod(self.highs - self.lows))

    @property
    def center(self) -> np.ndarray:
        """Geometric centre of the box."""
        return (self.lows + self.highs) / 2.0

    def extent(self) -> np.ndarray:
        """Per-dimension side lengths."""
        return self.highs - self.lows

    def contains(self, point: np.ndarray) -> bool:
        """Membership in the half-open box (closed at the cube's outer face)."""
        p = np.asarray(point, dtype=np.float64)
        at_outer_face = (self.highs == 1.0) & (p == 1.0)
        return bool(
            np.all(p >= self.lows) and np.all((p < self.highs) | at_outer_face)
        )

    # -- splitting -----------------------------------------------------------

    def split(
        self, dim: int | None = None, *, fraction: float = 0.5
    ) -> tuple["Zone", "Zone"]:
        """Split the zone along ``dim`` (default: the longest side).

        Returns ``(lower_half, upper_half)``. Ties on the longest side break
        to the lowest dimension index, which reproduces CAN's round-robin
        split order under uniform joins. ``fraction`` places the cut at
        ``lows + fraction * extent`` — the load-adaptive rebalancer uses an
        off-centre cut to carve a hot zone proportionally to where its
        traffic concentrates; the default midpoint is CAN's classic split.
        """
        if dim is None:
            dim = int(np.argmax(self.extent()))
        if not 0 <= dim < self.dimensionality:
            raise ValidationError(
                f"split dim {dim} out of range for {self.dimensionality}-d zone"
            )
        fraction = float(fraction)
        if not 0.0 < fraction < 1.0:
            raise ValidationError(
                f"split fraction must be in (0, 1), got {fraction}"
            )
        if fraction == 0.5:
            # Keep the historical midpoint expression: bit-identical zone
            # boundaries for every non-adaptive caller.
            mid = (self.lows[dim] + self.highs[dim]) / 2.0
        else:
            mid = self.lows[dim] + fraction * (
                self.highs[dim] - self.lows[dim]
            )
        if not self.lows[dim] < mid < self.highs[dim]:
            raise ValidationError(
                f"zone too thin to split along dim {dim}"
            )
        lower_highs = self.highs.copy()
        lower_highs[dim] = mid
        upper_lows = self.lows.copy()
        upper_lows[dim] = mid
        return Zone(self.lows, lower_highs), Zone(upper_lows, self.highs)

    # -- distances -----------------------------------------------------------

    def euclidean_distance_to(self, point: np.ndarray) -> float:
        """Min Euclidean distance from the box to ``point`` (no wraparound).

        Used for query flooding: data similarity is plain Euclidean in the
        key space (the torus is routing topology only).
        """
        p = check_vector(point, "point", dim=self.dimensionality)
        gaps = np.maximum(np.maximum(self.lows - p, p - self.highs), 0.0)
        return float(np.linalg.norm(gaps))

    def torus_distance_to(self, point: np.ndarray) -> float:
        """Min torus (wraparound) Euclidean distance from the box to ``point``.

        Used as the greedy routing metric, matching CAN's torus key space.
        """
        p = check_vector(point, "point", dim=self.dimensionality)
        direct = np.maximum(np.maximum(self.lows - p, p - self.highs), 0.0)
        shifted_up = np.maximum(
            np.maximum(self.lows - (p + 1.0), (p + 1.0) - self.highs), 0.0
        )
        shifted_down = np.maximum(
            np.maximum(self.lows - (p - 1.0), (p - 1.0) - self.highs), 0.0
        )
        per_dim = np.minimum(direct, np.minimum(shifted_up, shifted_down))
        return float(np.linalg.norm(per_dim))

    def intersects_sphere(self, center: np.ndarray, radius: float) -> bool:
        """True when the Euclidean ball ``(center, radius)`` meets the box."""
        return self.euclidean_distance_to(center) <= radius + 1e-12

    # -- neighbour relation ----------------------------------------------------

    def _span_overlap(self, other: "Zone", dim: int) -> float:
        """Length of the (torus-aware) overlap of the two spans in ``dim``."""
        a_lo, a_hi = self.lows[dim], self.highs[dim]
        best = 0.0
        for shift in (-1.0, 0.0, 1.0):
            lo = max(a_lo + shift, other.lows[dim])
            hi = min(a_hi + shift, other.highs[dim])
            best = max(best, hi - lo)
        return best

    def _spans_abut(self, other: "Zone", dim: int) -> bool:
        """True when the two spans touch end-to-end in ``dim`` (torus-aware)."""
        a_lo, a_hi = self.lows[dim], self.highs[dim]
        b_lo, b_hi = other.lows[dim], other.highs[dim]
        if a_hi == b_lo or b_hi == a_lo:
            return True
        # Wraparound abutment across the 0/1 seam.
        if a_hi == 1.0 and b_lo == 0.0:
            return True
        if b_hi == 1.0 and a_lo == 0.0:
            return True
        return False

    def merge_with(self, other: "Zone") -> "Zone | None":
        """Union with ``other`` when it forms a valid box, else ``None``.

        Two zones merge iff they abut directly (not across the torus seam —
        that union would not be a box) along exactly one dimension and have
        identical spans in every other dimension. Used by the node-departure
        protocol: a leaving node's zone is absorbed by a mergeable
        neighbour.
        """
        if other.dimensionality != self.dimensionality:
            raise ValidationError("zones live in different key spaces")
        merge_dim = -1
        for dim in range(self.dimensionality):
            same_span = (
                self.lows[dim] == other.lows[dim]
                and self.highs[dim] == other.highs[dim]
            )
            if same_span:
                continue
            abuts_directly = (
                self.highs[dim] == other.lows[dim]
                or other.highs[dim] == self.lows[dim]
            )
            if abuts_directly and merge_dim < 0:
                merge_dim = dim
                continue
            return None
        if merge_dim < 0:
            return None  # identical zones cannot coexist in a partition
        lows = np.minimum(self.lows, other.lows)
        highs = np.maximum(self.highs, other.highs)
        return Zone(lows, highs)

    def is_neighbor(self, other: "Zone") -> bool:
        """CAN neighbour relation (torus-aware).

        Two zones are neighbours when their spans *abut* in exactly one
        dimension and *overlap* (positive measure) in every other
        dimension. In a 1-d overlay, abutment alone suffices.
        """
        if other.dimensionality != self.dimensionality:
            raise ValidationError("zones live in different key spaces")
        abut_dim = -1
        for dim in range(self.dimensionality):
            overlap = self._span_overlap(other, dim)
            if overlap > 0.0:
                continue
            if self._spans_abut(other, dim) and abut_dim < 0:
                abut_dim = dim
                continue
            return False
        return abut_dim >= 0
