"""Tests for CAN zones: geometry, splitting, neighbour relation."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.exceptions import ValidationError
from repro.overlay.can.zone import Zone


def make_zone(lows, highs):
    return Zone(np.asarray(lows, dtype=float), np.asarray(highs, dtype=float))


class TestZoneBasics:
    def test_full(self):
        z = Zone.full(3)
        assert z.volume == 1.0
        assert z.contains(np.array([0.5, 0.5, 0.5]))

    def test_invalid_bounds(self):
        with pytest.raises(ValidationError):
            make_zone([0.5, 0.0], [0.4, 1.0])
        with pytest.raises(ValidationError):
            make_zone([-0.1, 0.0], [0.5, 1.0])
        with pytest.raises(ValidationError):
            Zone.full(0)

    def test_contains_half_open(self):
        z = make_zone([0.0, 0.0], [0.5, 0.5])
        assert z.contains(np.array([0.0, 0.0]))
        assert not z.contains(np.array([0.5, 0.0]))

    def test_contains_closed_at_outer_face(self):
        z = make_zone([0.5, 0.5], [1.0, 1.0])
        assert z.contains(np.array([1.0, 1.0]))

    def test_center_and_extent(self):
        z = make_zone([0.0, 0.5], [0.5, 1.0])
        assert np.allclose(z.center, [0.25, 0.75])
        assert np.allclose(z.extent(), [0.5, 0.5])


class TestZoneSplit:
    def test_split_longest_side(self):
        z = make_zone([0.0, 0.0], [1.0, 0.5])
        lower, upper = z.split()
        assert np.allclose(lower.highs, [0.5, 0.5])
        assert np.allclose(upper.lows, [0.5, 0.0])

    def test_split_explicit_dim(self):
        z = Zone.full(2)
        lower, upper = z.split(1)
        assert np.allclose(lower.highs, [1.0, 0.5])

    def test_split_preserves_volume(self):
        z = Zone.full(3)
        lower, upper = z.split()
        assert np.isclose(lower.volume + upper.volume, z.volume)

    def test_split_halves_are_disjoint_and_cover(self, rng):
        z = make_zone([0.2, 0.3], [0.8, 0.9])
        lower, upper = z.split()
        for __ in range(100):
            p = rng.uniform([0.2, 0.3], [0.8, 0.9])
            assert lower.contains(p) != upper.contains(p) or (
                not z.contains(p)
            )

    def test_bad_dim(self):
        with pytest.raises(ValidationError):
            Zone.full(2).split(5)


class TestZoneDistances:
    def test_euclidean_inside_is_zero(self):
        z = make_zone([0.0, 0.0], [0.5, 0.5])
        assert z.euclidean_distance_to(np.array([0.25, 0.25])) == 0.0

    def test_euclidean_outside(self):
        z = make_zone([0.0, 0.0], [0.5, 0.5])
        assert np.isclose(
            z.euclidean_distance_to(np.array([1.0, 0.25])), 0.5
        )

    def test_torus_wraps(self):
        z = make_zone([0.0, 0.0], [0.1, 1.0])
        # Point at x=0.95: direct gap 0.85, wrapped gap 0.05.
        assert np.isclose(
            z.torus_distance_to(np.array([0.95, 0.5])), 0.05
        )

    def test_torus_never_exceeds_euclidean(self, rng):
        z = make_zone([0.3, 0.1], [0.6, 0.4])
        for __ in range(50):
            p = rng.random(2)
            assert z.torus_distance_to(p) <= z.euclidean_distance_to(p) + 1e-12

    def test_intersects_sphere(self):
        z = make_zone([0.0, 0.0], [0.5, 0.5])
        assert z.intersects_sphere(np.array([0.7, 0.25]), 0.3)
        assert not z.intersects_sphere(np.array([0.9, 0.9]), 0.3)


class TestNeighborRelation:
    def test_abutting_zones_are_neighbors(self):
        a = make_zone([0.0, 0.0], [0.5, 1.0])
        b = make_zone([0.5, 0.0], [1.0, 1.0])
        assert a.is_neighbor(b)
        assert b.is_neighbor(a)

    def test_corner_touch_is_not_neighbor(self):
        a = make_zone([0.0, 0.0], [0.5, 0.5])
        b = make_zone([0.5, 0.5], [1.0, 1.0])
        assert not a.is_neighbor(b)

    def test_disjoint_not_neighbors(self):
        # Separated in dim 0 and away from the torus seam on both sides.
        a = make_zone([0.1, 0.0], [0.3, 1.0])
        b = make_zone([0.5, 0.0], [0.9, 1.0])
        assert not a.is_neighbor(b)

    def test_wraparound_neighbors(self):
        a = make_zone([0.0, 0.0], [0.25, 1.0])
        b = make_zone([0.75, 0.0], [1.0, 1.0])
        assert a.is_neighbor(b)

    def test_partial_overlap_abut(self):
        a = make_zone([0.0, 0.0], [0.5, 0.5])
        b = make_zone([0.5, 0.25], [1.0, 0.75])
        assert a.is_neighbor(b)

    def test_one_dimensional(self):
        a = make_zone([0.0], [0.5])
        b = make_zone([0.5], [1.0])
        assert a.is_neighbor(b)

    def test_dimension_mismatch(self):
        with pytest.raises(ValidationError):
            Zone.full(2).is_neighbor(Zone.full(3))

    @given(seed=st.integers(0, 2**31 - 1))
    def test_split_children_are_neighbors(self, seed):
        rng = np.random.default_rng(seed)
        lows = rng.random(2) * 0.4
        highs = lows + 0.1 + rng.random(2) * 0.4
        highs = np.minimum(highs, 1.0)
        z = Zone(lows, highs)
        lower, upper = z.split()
        assert lower.is_neighbor(upper)


class TestFromRows:
    """``Zone.from_rows``: ``n`` validated boxes from one array check."""

    #: ``(lows, highs)`` pairs ``Zone()`` refuses for some row.
    BAD_ROWS = [
        ([[0.0, np.nan]], [[0.5, 0.5]]),
        ([[0.0, 0.0]], [[0.5, np.inf]]),
        ([[-0.1, 0.0]], [[0.5, 0.5]]),
        ([[0.0, 0.0]], [[0.5, 1.5]]),
        ([[0.5, 0.0]], [[0.5, 1.0]]),  # lows == highs: an empty box
        ([[0.6, 0.0]], [[0.5, 1.0]]),
        ([[0.0, 0.0]], [[0.5]]),  # ragged
    ]

    @pytest.mark.parametrize("lows,highs", BAD_ROWS)
    def test_refuses_what_the_constructor_refuses(self, lows, highs):
        with pytest.raises(ValidationError) as one:
            make_zone(lows[0], highs[0])
        good_lows = [[0.0] * len(lows[0])] * 2
        good_highs = [[1.0] * len(highs[0])] * 2
        # The bad box sits between good ones: every row is checked.
        with pytest.raises(ValidationError) as many:
            Zone.from_rows(good_lows[:1] + lows + good_lows[1:],
                           good_highs[:1] + highs + good_highs[1:])
        assert type(many.value) is type(one.value)

    def test_refuses_non_matrix_input(self):
        with pytest.raises(ValidationError, match="2-D"):
            Zone.from_rows(np.zeros(3), np.ones(3))
        with pytest.raises(ValidationError, match="2-D"):
            Zone.from_rows(np.zeros((2, 3)), np.ones(3))
        with pytest.raises(ValidationError, match="one row per zone"):
            Zone.from_rows(np.zeros((2, 3)), np.ones((3, 3)))
        with pytest.raises(ValidationError, match="at least 1 row"):
            Zone.from_rows(np.zeros((0, 3)), np.ones((0, 3)))

    def test_rows_are_frozen_views(self):
        lows, highs = np.zeros((4, 2)), np.ones((4, 2))
        zones = Zone.from_rows(lows, highs)
        assert len(zones) == 4
        for zone in zones:
            assert zone.lows.base is lows and zone.highs.base is highs
            with pytest.raises(ValueError, match="read-only"):
                zone.lows[0] = 0.5
            with pytest.raises(ValueError, match="cannot set WRITEABLE"):
                zone.highs.setflags(write=True)
        with pytest.raises(ValueError, match="read-only"):
            lows[0, 0] = 0.5  # the arrays are adopted, as Zone() adopts

    @given(seed=st.integers(0, 2**31 - 1), dim=st.integers(1, 5))
    def test_agrees_with_the_constructor(self, seed, dim):
        rng = np.random.default_rng(seed)
        n = 6
        lows = np.round(rng.random((n, dim)) * 0.6, 2)  # ties and seams
        lows[rng.random((n, dim)) < 0.2] = 0.0
        highs = np.minimum(lows + 0.05 + np.round(rng.random((n, dim)), 2), 1.0)
        built = Zone.from_rows(lows.copy(), highs.copy())
        single = [Zone(lows[i].copy(), highs[i].copy()) for i in range(n)]
        points = np.concatenate([rng.random((4, dim)), lows[:2], highs[:2]])
        for a, b in zip(built, single):
            assert a.lows.tobytes() == b.lows.tobytes()
            assert a.highs.tobytes() == b.highs.tobytes()
            assert a.dimensionality == b.dimensionality == dim
            for point in points:
                assert a.contains(point) == b.contains(point)
                assert a.euclidean_distance_to(point) == (
                    b.euclidean_distance_to(point)
                )
                assert a.torus_distance_to(point) == b.torus_distance_to(point)
            for half_a, half_b in zip(a.split(), b.split()):
                assert half_a.lows.tobytes() == half_b.lows.tobytes()
                assert half_a.highs.tobytes() == half_b.highs.tobytes()
            for other_a, other_b in zip(built, single):
                assert a.is_neighbor(other_a) == b.is_neighbor(other_b)
