"""Tests for HyperMPeer."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.peer import HyperMPeer
from repro.exceptions import ValidationError


@pytest.fixture
def peer(rng):
    return HyperMPeer(0, rng.random((30, 16)))


class TestConstruction:
    def test_default_item_ids(self, peer):
        assert np.array_equal(peer.item_ids, np.arange(30))

    def test_explicit_item_ids(self, rng):
        ids = np.arange(100, 110)
        peer = HyperMPeer(1, rng.random((10, 8)), ids)
        assert np.array_equal(peer.item_ids, ids)

    def test_id_length_mismatch(self, rng):
        with pytest.raises(ValidationError):
            HyperMPeer(0, rng.random((5, 8)), np.arange(4))

    def test_out_of_cube_rejected(self):
        with pytest.raises(ValidationError):
            HyperMPeer(0, np.full((3, 4), 2.0))


class TestSummary:
    def test_build_summary(self, peer):
        summary = peer.build_summary(n_clusters=4, levels_used=3, rng=0)
        assert peer.summary is summary
        assert len(summary.levels) == 3

    def test_summary_only_covers_published(self, rng):
        peer = HyperMPeer(0, rng.random((20, 16)))
        peer.add_items(rng.random((10, 16)), np.arange(100, 110))
        summary = peer.build_summary(n_clusters=3, levels_used=2, rng=0)
        for level in summary.levels:
            assert summary.items_summarised(level) == 20


class TestRangeSearch:
    def test_self_retrieval(self, peer):
        hits = peer.range_search(peer.data[4], 0.0)
        assert any(h.item_id == 4 for h in hits)

    def test_exactness(self, peer, rng):
        query = rng.random(16)
        radius = 0.8
        hits = peer.range_search(query, radius)
        expected = {
            int(i)
            for i, row in enumerate(peer.data)
            if np.linalg.norm(row - query) <= radius
        }
        assert {h.item_id for h in hits} == expected

    def test_distances_correct(self, peer, rng):
        query = rng.random(16)
        for hit in peer.range_search(query, 2.0):
            row = peer.data[list(peer.item_ids).index(hit.item_id)]
            assert np.isclose(hit.distance, np.linalg.norm(row - query))

    def test_dimension_mismatch(self, peer):
        with pytest.raises(Exception):
            peer.range_search(np.zeros(4), 0.1)


def _brute_force(peer, query, radius):
    """The reference scan: every row's norm, slack 1e-12, row order."""
    dists = np.linalg.norm(peer.data - query, axis=1)
    return [
        (int(peer.item_ids[i]), peer.peer_id, float(dists[i]))
        for i in np.flatnonzero(dists <= radius + 1e-12)
    ]


def _assert_search_is_the_brute_force_scan(peer, rng):
    """Same ids, same row order, ``==`` on the floats, at the hard radii."""
    held = peer.data[rng.integers(0, peer.n_items)]
    for query in (held, rng.random(peer.dimensionality)):
        dists = np.linalg.norm(peer.data - query, axis=1)
        exact = float(dists[rng.integers(0, peer.n_items)])
        radii = [
            0.0,  # with ``held``: the row itself, at distance exactly 0
            exact,
            float(np.nextafter(exact, -np.inf)),
            float(np.nextafter(exact, np.inf)),
            exact - 3e-12,  # past the 1e-12 slack on either side
            exact + 3e-12,
            float(np.median(dists)),
            float(dists.max()) + 1.0,
        ]
        for radius in radii:
            found = [
                (hit.item_id, hit.peer_id, hit.distance)
                for hit in peer.range_search(query, radius)
            ]
            assert found == _brute_force(peer, query, radius)


class TestRangeSearchBits:
    """``range_search`` *is* ``norm(data - q, axis=1) <= r + 1e-12``.

    Pinned bit for bit (ids, order, distances) so the search may change
    how it finds the rows but never which rows or what it reports; the
    repeats after ``add_items`` / ``remove_items`` are what catch any
    per-row state kept beside ``data`` going stale.
    """

    @given(
        d=st.sampled_from([2, 16, 128, 512]),
        n=st.integers(1, 48),
        seed=st.integers(0, 10_000),
    )
    def test_equals_brute_force_through_adds_and_removes(self, d, n, seed):
        rng = np.random.default_rng(seed)
        peer = HyperMPeer(3, rng.random((n, d)), np.arange(1000, 1000 + n))
        _assert_search_is_the_brute_force_scan(peer, rng)
        added = int(rng.integers(1, 9))
        peer.add_items(rng.random((added, d)), np.arange(5000, 5000 + added))
        _assert_search_is_the_brute_force_scan(peer, rng)
        doomed = rng.choice(
            peer.item_ids, size=int(rng.integers(1, peer.n_items)),
            replace=False,
        )
        peer.remove_items(doomed)
        _assert_search_is_the_brute_force_scan(peer, rng)

    def test_duplicate_rows_and_cube_corners(self):
        # Exact-match look-ups where cancellation in an expanded
        # ``|x|^2 - 2x.q + |q|^2`` is worst: the largest norms the unit
        # cube allows, at the largest dimensionality the repo uses.
        data = np.ones((6, 512))
        data[3] = np.nextafter(1.0, 0.0)
        data[4, :7] = 1.0 - 1e-9
        peer = HyperMPeer(9, data)
        for row in range(6):
            for radius in (0.0, 1e-12, 1e-9, 1e-6, 1e-4):
                found = [
                    (hit.item_id, hit.peer_id, hit.distance)
                    for hit in peer.range_search(data[row], radius)
                ]
                assert found == _brute_force(peer, data[row], radius)


def _assert_scan_is_the_brute_force_scan(peer, rng):
    """Every column of one grouped scan is the brute-force scan, bitwise.

    The batch mixes held rows and random points, repeats some queries,
    and pairs them with the hard radii of the single-query pin.
    """
    held = peer.data[rng.integers(0, peer.n_items, 3)]
    points = np.vstack([held, rng.random((3, peer.dimensionality))])
    queries, radii = [], []
    for query in points:
        dists = np.linalg.norm(peer.data - query, axis=1)
        exact = float(dists[rng.integers(0, peer.n_items)])
        for radius in (
            0.0, exact,
            float(np.nextafter(exact, -np.inf)),
            float(np.nextafter(exact, np.inf)),
            exact - 3e-12, exact + 3e-12,
            float(np.median(dists)),
        ):
            queries.append(query)
            radii.append(radius)
    order = rng.permutation(len(radii))
    duplicates = rng.choice(order, size=4)
    order = np.concatenate([order, duplicates])
    queries = np.asarray(queries)[order]
    radii = np.asarray(radii)[order]
    columns = peer.scan(queries, radii)
    assert len(columns) == radii.size
    for query, radius, hits in zip(queries, radii, columns):
        found = [(hit.item_id, hit.peer_id, hit.distance) for hit in hits]
        assert found == _brute_force(peer, query, float(radius))


class TestScanBits:
    """The grouped scan: ``B`` queries in one pass, each column exactly
    :meth:`range_search` (whose one-column case it is)."""

    @given(
        d=st.sampled_from([2, 16, 128, 512]),
        n=st.integers(1, 48),
        seed=st.integers(0, 10_000),
    )
    def test_each_column_equals_brute_force_through_adds_and_removes(
        self, d, n, seed
    ):
        rng = np.random.default_rng(seed)
        peer = HyperMPeer(5, rng.random((n, d)), np.arange(2000, 2000 + n))
        _assert_scan_is_the_brute_force_scan(peer, rng)
        added = int(rng.integers(1, 9))
        peer.add_items(rng.random((added, d)), np.arange(7000, 7000 + added))
        _assert_scan_is_the_brute_force_scan(peer, rng)
        doomed = rng.choice(
            peer.item_ids, size=int(rng.integers(1, peer.n_items)),
            replace=False,
        )
        peer.remove_items(doomed)
        _assert_scan_is_the_brute_force_scan(peer, rng)

    def test_range_search_is_the_one_column_scan(self, peer, rng, monkeypatch):
        calls = []
        scan = HyperMPeer.scan

        def spy(self, queries, radii):
            calls.append((queries.shape, radii.tolist()))
            return scan(self, queries, radii)

        monkeypatch.setattr(HyperMPeer, "scan", spy)
        peer.range_search(peer.data[2], 0.5)
        assert calls == [((1, 16), [0.5])]

    def test_no_survivor_gives_empty_columns(self, peer):
        far = np.full((2, 16), 50.0)
        assert peer.scan(far, np.array([0.0, 1.0])) == [[], []]


class TestNearestItems:
    def test_order_and_count(self, peer, rng):
        query = rng.random(16)
        hits = peer.nearest_items(query, 5)
        assert len(hits) == 5
        dists = [h.distance for h in hits]
        assert dists == sorted(dists)

    def test_count_capped(self, peer, rng):
        assert len(peer.nearest_items(rng.random(16), 100)) == 30

    def test_zero_count(self, peer, rng):
        assert peer.nearest_items(rng.random(16), 0) == []

    def test_matches_brute_force(self, peer, rng):
        query = rng.random(16)
        hits = peer.nearest_items(query, 7)
        dists = np.linalg.norm(peer.data - query, axis=1)
        expected = set(np.argsort(dists)[:7].tolist())
        assert {h.item_id for h in hits} == expected


class TestAddItems:
    def test_post_hoc_items_visible_to_search(self, peer, rng):
        new = rng.random((5, 16))
        peer.add_items(new, np.arange(200, 205))
        assert peer.n_items == 35
        hits = peer.range_search(new[0], 0.0)
        assert any(h.item_id == 200 for h in hits)

    def test_unpublished_boundary_tracked(self, peer, rng):
        peer.add_items(rng.random((3, 16)), np.arange(300, 303))
        assert peer.unpublished_from == 30

    def test_id_mismatch_rejected(self, peer, rng):
        with pytest.raises(ValidationError):
            peer.add_items(rng.random((2, 16)), np.arange(3))
