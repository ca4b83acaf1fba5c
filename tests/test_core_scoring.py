"""Tests for Eq. 1 peer scoring and cross-level aggregation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.results import ClusterRecord
from repro.core.scoring import (
    aggregate_scores,
    level_scores,
    level_scores_scalar,
    rank_peers,
)
from repro.exceptions import ValidationError
from repro.geometry.intersection import INTERSECTION_SLACK
from repro.index import LevelStore
from repro.overlay.base import StoredEntry


def entry(peer_id, key, radius, items):
    return StoredEntry(
        key=np.asarray(key, dtype=float),
        radius=radius,
        value=ClusterRecord(peer_id=peer_id, items=items, level_name="A"),
    )


def stored(entries, d=None):
    """``entries`` as a candidate set over a fresh store: what the batched
    ``level_scores`` takes (the scalar oracle keeps the entry list)."""
    store = LevelStore(d if d is not None else entries[0].key.shape[0])
    rows = [store.add(e.key, e.radius, e.value) for e in entries]
    return store.candidate_set(np.asarray(rows, dtype=np.int64))


class TestLevelScores:
    def test_full_containment_counts_all_items(self):
        entries = [entry(1, [0.5, 0.5], 0.1, 40)]
        scores = level_scores(stored(entries), np.array([0.5, 0.5]), 0.5)
        assert np.isclose(scores[1], 40.0)

    def test_disjoint_contributes_nothing(self):
        entries = [entry(1, [0.1, 0.1], 0.05, 40)]
        scores = level_scores(stored(entries), np.array([0.9, 0.9]), 0.05)
        assert 1 not in scores

    def test_partial_overlap_scales_items(self):
        entries = [entry(1, [0.5, 0.5], 0.2, 100)]
        scores = level_scores(stored(entries), np.array([0.6, 0.5]), 0.2)
        assert 0 < scores[1] < 100

    def test_multiple_clusters_same_peer_sum(self):
        entries = [
            entry(2, [0.5, 0.5], 0.1, 10),
            entry(2, [0.52, 0.5], 0.1, 20),
        ]
        scores = level_scores(stored(entries), np.array([0.5, 0.5]), 0.5)
        assert np.isclose(scores[2], 30.0)

    def test_tangential_touch_gets_floor_not_zero(self):
        """A touching cluster must keep a non-zero score, or min-aggregation
        would violate the no-false-dismissal guarantee."""
        entries = [entry(3, [0.5, 0.5], 0.1, 10)]
        # Tangent: distance = radius + query radius exactly.
        scores = level_scores(stored(entries), np.array([0.7, 0.5]), 0.1)
        assert scores.get(3, 0.0) > 0.0


def _random_entries(rng, n, d, n_peers):
    return [
        entry(
            int(rng.integers(n_peers)),
            rng.uniform(0.0, 1.0, d),
            float(rng.uniform(0.0, 0.4)),
            int(rng.integers(1, 50)),
        )
        for _ in range(n)
    ]


class TestBatchScalarParity:
    """The batched level_scores must reproduce the scalar oracle exactly:
    same peers, scores to 1e-9 relative, identical filter accounting."""

    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        eps=st.floats(min_value=0.0, max_value=1.0),
        d=st.sampled_from([1, 2, 4, 8, 16]),
    )
    def test_random_workloads(self, seed, eps, d):
        rng = np.random.default_rng(seed)
        entries = _random_entries(rng, 40, d, n_peers=6)
        center = rng.uniform(0.0, 1.0, d)
        batch_stats: dict = {}
        scalar_stats: dict = {}
        batch = level_scores(stored(entries), center, eps, stats=batch_stats)
        scalar = level_scores_scalar(entries, center, eps, stats=scalar_stats)
        assert batch_stats == scalar_stats
        assert set(batch) == set(scalar)
        for peer, score in scalar.items():
            assert batch[peer] == pytest.approx(score, rel=1e-9, abs=1e-300)

    def test_high_dimensional_parity(self):
        rng = np.random.default_rng(3)
        d = 512
        entries = _random_entries(rng, 60, d, n_peers=8)
        center = rng.uniform(0.0, 1.0, d)
        batch_stats: dict = {}
        scalar_stats: dict = {}
        batch = level_scores(stored(entries), center, 2.0, stats=batch_stats)
        scalar = level_scores_scalar(entries, center, 2.0, stats=scalar_stats)
        assert batch_stats == scalar_stats
        assert set(batch) == set(scalar)
        for peer, score in scalar.items():
            assert batch[peer] == pytest.approx(score, rel=1e-9, abs=1e-300)

    def test_empty_entries(self):
        batch_stats: dict = {}
        scalar_stats: dict = {}
        assert level_scores(stored([], d=2), np.zeros(2), 0.5, stats=batch_stats) == {}
        assert level_scores_scalar([], np.zeros(2), 0.5, stats=scalar_stats) == {}
        assert batch_stats == scalar_stats == {
            "candidates": 0, "pruned": 0, "surviving": 0
        }

    def test_all_pruned_stats(self):
        entries = [entry(1, [0.9, 0.9], 0.01, 5), entry(2, [0.8, 0.8], 0.01, 5)]
        center = np.array([0.1, 0.1])
        batch_stats: dict = {}
        scalar_stats: dict = {}
        assert level_scores(stored(entries), center, 0.05, stats=batch_stats) == {}
        assert level_scores_scalar(entries, center, 0.05, stats=scalar_stats) == {}
        assert batch_stats == scalar_stats
        assert batch_stats["pruned"] == 2
        assert batch_stats["surviving"] == 0

    def test_boundary_band_agreement(self):
        """Entries placed just inside and just outside the shared slack
        band must be classified identically by both paths: inside the band
        survives (floored score), outside is pruned."""
        r, eps = 0.1, 0.2
        inside_b = r + eps + 0.4 * INTERSECTION_SLACK
        outside_b = r + eps + 2.0 * INTERSECTION_SLACK
        center = np.zeros(2)
        for b, survives in ((inside_b, True), (outside_b, False)):
            entries = [entry(7, [b, 0.0], r, 10)]
            batch_stats: dict = {}
            scalar_stats: dict = {}
            batch = level_scores(stored(entries), center, eps, stats=batch_stats)
            scalar = level_scores_scalar(entries, center, eps, stats=scalar_stats)
            assert batch_stats == scalar_stats
            assert (7 in batch) is survives
            assert (7 in scalar) is survives
            if survives:
                assert batch[7] > 0.0
                assert batch[7] == pytest.approx(scalar[7], rel=1e-9)


class TestAggregation:
    def test_min_policy(self):
        per_level = {"A": {1: 5.0, 2: 9.0}, "D0": {1: 3.0, 2: 12.0}}
        out = aggregate_scores(per_level, policy="min")
        assert out == {1: 3.0, 2: 9.0}

    def test_min_prunes_missing_peers(self):
        per_level = {"A": {1: 5.0, 2: 9.0}, "D0": {2: 1.0}}
        out = aggregate_scores(per_level, policy="min")
        assert 1 not in out

    def test_sum_policy(self):
        per_level = {"A": {1: 5.0}, "D0": {1: 3.0}}
        assert aggregate_scores(per_level, policy="sum") == {1: 8.0}

    def test_product_policy(self):
        per_level = {"A": {1: 5.0}, "D0": {1: 3.0}}
        assert aggregate_scores(per_level, policy="product") == {1: 15.0}

    def test_empty(self):
        assert aggregate_scores({}) == {}

    def test_unknown_policy(self):
        with pytest.raises(ValidationError):
            aggregate_scores({"A": {1: 1.0}}, policy="median")


class TestRankPeers:
    def test_descending(self):
        ranked = rank_peers({1: 2.0, 2: 9.0, 3: 5.0})
        assert [p for p, __ in ranked] == [2, 3, 1]

    def test_deterministic_ties(self):
        ranked = rank_peers({5: 1.0, 2: 1.0, 9: 1.0})
        assert [p for p, __ in ranked] == [2, 5, 9]
