"""Tests for the Eq. 8 inversion (expected items -> query radius)."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.clustering.spheres import ClusterSphere
from repro.exceptions import ValidationError
from repro.geometry.epsilon import estimate_epsilon_for_k, expected_items
from repro.geometry.intersection import intersection_fraction


def make_spheres(rng, n, d=4):
    return [
        ClusterSphere(
            centroid=rng.random(d),
            radius=float(rng.uniform(0.05, 0.3)),
            items=int(rng.integers(5, 50)),
        )
        for __ in range(n)
    ]


def columns(spheres, q):
    """``(radii, items, dists, d)``: the column form Eq. 8 takes."""
    q = np.asarray(q, dtype=np.float64)
    return (
        np.array([s.radius for s in spheres], dtype=np.float64),
        np.array([s.items for s in spheres], dtype=np.float64),
        np.array([s.distance_to_center(q) for s in spheres], dtype=np.float64),
        q.shape[0],
    )


class TestExpectedItems:
    def test_empty(self):
        assert expected_items(1.0, *columns([], np.zeros(3))) == 0.0

    def test_full_coverage_counts_everything(self, rng):
        spheres = make_spheres(rng, 5)
        total = sum(s.items for s in spheres)
        assert np.isclose(
            expected_items(10.0, *columns(spheres, np.zeros(4))), total
        )

    def test_zero_radius_counts_containing_singletons(self):
        q = np.array([0.5, 0.5])
        spheres = [
            ClusterSphere(q.copy(), 0.0, 7),
            ClusterSphere(np.array([0.9, 0.9]), 0.0, 3),
        ]
        assert expected_items(0.0, *columns(spheres, q)) == 7.0

    def test_monotone_in_epsilon(self, rng):
        spheres = make_spheres(rng, 8)
        q = rng.random(4)
        values = [
            expected_items(e, *columns(spheres, q)) for e in np.linspace(0, 3, 30)
        ]
        assert all(b >= a - 1e-9 for a, b in zip(values, values[1:]))

    def test_concentric_analytic(self):
        sphere = ClusterSphere(np.zeros(4), 1.0, 100)
        # eps = (1/2)^(1/4) covers exactly half the ball's volume.
        eps = 0.5 ** 0.25
        assert np.isclose(expected_items(eps, *columns([sphere], np.zeros(4))), 50.0)

    @given(
        rows=st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=2.0),   # radius
                st.integers(min_value=1, max_value=500),   # items
                st.floats(min_value=0.0, max_value=3.0),   # centre distance
            ),
            max_size=12,
        ),
        epsilon=st.floats(min_value=0.0, max_value=4.0),
        d=st.integers(min_value=1, max_value=16),
    )
    def test_columns_match_the_scalar_oracle(self, rows, epsilon, d):
        """Eq. 8 over columns == Σ items_c · scalar Eq. 7 of sphere c."""
        radii, items, dists = (
            np.array(column, dtype=np.float64)
            for column in (zip(*rows) if rows else ((), (), ()))
        )
        oracle = sum(
            count * intersection_fraction(radius, epsilon, dist, d)
            for radius, count, dist in rows
        )
        assert expected_items(epsilon, radii, items, dists, d) == pytest.approx(
            oracle, rel=1e-9, abs=1e-9
        )


#: What a sphere object refused per row, and the misalignment a list of
#: objects could not have: each must be refused per array, by both entry
#: points, before any early return.
BAD_COLUMNS = {
    "nan_radius": ([0.1, np.nan], [3, 4], [0.2, 0.3]),
    "infinite_radius": ([0.1, np.inf], [3, 4], [0.2, 0.3]),
    "negative_radius": ([0.1, -0.1], [3, 4], [0.2, 0.3]),
    "items_below_one": ([0.1, 0.1], [3, 0], [0.2, 0.3]),
    "nan_items": ([0.1, 0.1], [3, np.nan], [0.2, 0.3]),
    "nan_distance": ([0.1, 0.1], [3, 4], [0.2, np.nan]),
    "misaligned_lengths": ([0.1, 0.1], [3, 4, 5], [0.2, 0.3]),
    "not_one_dimensional": ([[0.1, 0.1]], [[3, 4]], [[0.2, 0.3]]),
}


@pytest.mark.parametrize("case", sorted(BAD_COLUMNS))
class TestColumnValidation:
    def test_expected_items_rejects(self, case):
        with pytest.raises(ValidationError):
            expected_items(0.5, *BAD_COLUMNS[case], 2)

    @pytest.mark.parametrize("k", [0, 3, 1000])
    def test_estimate_rejects_before_any_early_return(self, case, k):
        with pytest.raises(ValidationError):
            estimate_epsilon_for_k(k, *BAD_COLUMNS[case], 2)


class TestEstimateEpsilon:
    @pytest.mark.parametrize("method", ["brentq", "newton"])
    def test_inverts_expected_items(self, rng, method):
        spheres = make_spheres(rng, 10)
        q = rng.random(4)
        total = sum(s.items for s in spheres)
        for k in (1.0, total / 4, total / 2):
            eps = estimate_epsilon_for_k(k, *columns(spheres, q), method=method)
            assert np.isclose(
                expected_items(eps, *columns(spheres, q)), k, rtol=1e-3, atol=1e-3
            )

    def test_k_exceeding_total_returns_cover_radius(self, rng):
        spheres = make_spheres(rng, 4)
        q = rng.random(4)
        total = sum(s.items for s in spheres)
        eps = estimate_epsilon_for_k(total * 2, *columns(spheres, q))
        cover = max(s.distance_to_center(q) + s.radius for s in spheres)
        assert np.isclose(eps, cover)
        assert np.isclose(expected_items(eps, *columns(spheres, q)), total)

    def test_no_spheres(self):
        assert estimate_epsilon_for_k(5, *columns([], np.zeros(3))) == 0.0

    def test_k_zero(self, rng):
        assert estimate_epsilon_for_k(
            0, *columns(make_spheres(rng, 3), np.zeros(4))
        ) == 0.0

    def test_negative_k_rejected(self, rng):
        with pytest.raises(ValidationError):
            estimate_epsilon_for_k(
                -1, *columns(make_spheres(rng, 3), np.zeros(4))
            )

    def test_unknown_method_rejected(self, rng):
        with pytest.raises(ValidationError):
            estimate_epsilon_for_k(
                1, *columns(make_spheres(rng, 3), np.zeros(4)), method="bogus"
            )

    def test_unknown_method_rejected_when_k_is_zero(self, rng):
        with pytest.raises(ValidationError, match="unknown method"):
            estimate_epsilon_for_k(
                0, *columns(make_spheres(rng, 3), np.zeros(4)), method="bogus"
            )

    def test_unknown_method_rejected_when_k_exceeds_total(self, rng):
        spheres = make_spheres(rng, 3)
        total = sum(s.items for s in spheres)
        with pytest.raises(ValidationError, match="unknown method"):
            estimate_epsilon_for_k(
                total, *columns(spheres, np.zeros(4)), method="bogus"
            )

    def test_unknown_method_rejected_when_zero_radius_suffices(self):
        q = np.array([0.3, 0.7])
        spheres = [ClusterSphere(q.copy(), 0.0, 10)]
        with pytest.raises(ValidationError, match="unknown method"):
            estimate_epsilon_for_k(5, *columns(spheres, q), method="bogus")

    def test_query_on_singleton_centroid(self):
        """Exact-coincidence singleton: k already satisfied at eps = 0."""
        q = np.array([0.3, 0.7])
        spheres = [ClusterSphere(q.copy(), 0.0, 10)]
        assert estimate_epsilon_for_k(5, *columns(spheres, q)) == 0.0

    @given(k_frac=st.floats(min_value=0.05, max_value=0.95))
    def test_brentq_and_newton_agree(self, k_frac):
        rng = np.random.default_rng(0)
        spheres = make_spheres(rng, 6)
        q = rng.random(4)
        k = k_frac * sum(s.items for s in spheres)
        a = estimate_epsilon_for_k(k, *columns(spheres, q), method="brentq")
        b = estimate_epsilon_for_k(k, *columns(spheres, q), method="newton")
        assert np.isclose(a, b, rtol=1e-3, atol=1e-4)

    def test_monotone_in_k(self, rng):
        spheres = make_spheres(rng, 8)
        q = rng.random(4)
        total = sum(s.items for s in spheres)
        ks = np.linspace(1, total - 1, 10)
        eps = [estimate_epsilon_for_k(k, *columns(spheres, q)) for k in ks]
        assert all(b >= a - 1e-9 for a, b in zip(eps, eps[1:]))
