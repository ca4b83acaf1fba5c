"""Tests for range/point query processing — including the paper's central
no-false-dismissal guarantee, checked end-to-end."""

import numpy as np
import pytest

from repro.core.baselines import CentralizedIndex
from repro.exceptions import QueryError, ValidationError
from repro.evaluation.metrics import precision_recall


class TestRangeQueries:
    def test_precision_always_one(self, tiny_histogram_workload, rng):
        wl = tiny_histogram_workload
        for __ in range(5):
            query = wl.ground_truth.data[int(rng.integers(wl.ground_truth.n_items))]
            result = wl.network.range_query(query, 0.12, max_peers=4)
            truth = wl.ground_truth.range_search(query, 0.12)
            pr = precision_recall(result.item_ids, truth)
            assert pr.precision == 1.0

    def test_no_false_dismissals_when_all_peers_contacted(
        self, tiny_histogram_workload, rng
    ):
        """Theorem 4.1 end-to-end: contacting every positive-score peer
        must retrieve every true result."""
        wl = tiny_histogram_workload
        for __ in range(8):
            query = wl.ground_truth.data[int(rng.integers(wl.ground_truth.n_items))]
            radius = float(rng.uniform(0.05, 0.2))
            result = wl.network.range_query(query, radius, max_peers=None)
            truth = wl.ground_truth.range_search(query, radius)
            assert truth <= result.item_ids, (
                f"missing {truth - result.item_ids} at radius {radius}"
            )

    def test_results_sorted_by_distance(self, tiny_histogram_workload, rng):
        wl = tiny_histogram_workload
        query = wl.ground_truth.data[0]
        result = wl.network.range_query(query, 0.2)
        dists = [item.distance for item in result.items]
        assert dists == sorted(dists)

    def test_max_peers_limits_contacts(self, tiny_histogram_workload):
        wl = tiny_histogram_workload
        query = wl.ground_truth.data[0]
        result = wl.network.range_query(query, 0.2, max_peers=2)
        assert len(result.peers_contacted) <= 2

    def test_more_peers_never_reduces_recall(self, tiny_histogram_workload, rng):
        wl = tiny_histogram_workload
        query = wl.ground_truth.data[int(rng.integers(wl.ground_truth.n_items))]
        truth = wl.ground_truth.range_search(query, 0.15)
        if not truth:
            pytest.skip("degenerate query")
        recalls = []
        for p in (1, 3, 8):
            result = wl.network.range_query(query, 0.15, max_peers=p)
            recalls.append(precision_recall(result.item_ids, truth).recall)
        assert recalls == sorted(recalls)

    def test_hop_accounting_positive(self, tiny_histogram_workload):
        wl = tiny_histogram_workload
        result = wl.network.range_query(wl.ground_truth.data[0], 0.1)
        assert result.index_hops >= 0
        assert result.retrieval_messages >= 0

    def test_scores_cover_contacted_peers(self, tiny_histogram_workload):
        wl = tiny_histogram_workload
        result = wl.network.range_query(wl.ground_truth.data[0], 0.15)
        for peer_id in result.peers_contacted:
            assert peer_id in result.peer_scores

    def test_unknown_origin_rejected(self, tiny_histogram_workload):
        wl = tiny_histogram_workload
        with pytest.raises(QueryError):
            wl.network.range_query(
                wl.ground_truth.data[0], 0.1, origin_peer=999
            )

    @pytest.mark.parametrize("budget", [-1, -3, 2.0, True, "2"])
    def test_bad_peer_budget_rejected_before_any_message(
        self, tiny_histogram_workload, budget
    ):
        """A negative budget used to slice the *lowest*-ranked peer off
        (``ranked[:-1]``) and report full confidence."""
        wl = tiny_histogram_workload
        query = wl.ground_truth.data[0]
        metrics = wl.network.fabric.metrics
        before = metrics.total_messages
        with pytest.raises(ValidationError, match="max_peers"):
            wl.network.range_query(query, 0.12, max_peers=budget)
        with pytest.raises(ValidationError, match="top_p"):
            wl.network.knn_query(query, 5, top_p=budget)
        assert metrics.total_messages == before

    def test_zero_and_numpy_peer_budgets_are_legal(
        self, tiny_histogram_workload
    ):
        wl = tiny_histogram_workload
        query = wl.ground_truth.data[0]
        nobody = wl.network.range_query(query, 0.12, max_peers=0)
        assert nobody.peers_contacted == [] and nobody.items == []
        assert nobody.peer_scores  # the index phase still ran
        assert wl.network.knn_query(query, 5, top_p=0).peers_contacted == []
        two = wl.network.range_query(query, 0.12, max_peers=np.int64(2))
        assert two.peers_contacted == wl.network.range_query(
            query, 0.12, max_peers=2
        ).peers_contacted

    @pytest.mark.parametrize("policy", ["bogus", "MIN", "max"])
    def test_bad_aggregation_rejected_before_any_message(
        self, tiny_histogram_workload, policy
    ):
        """An unknown policy used to be refused by ``aggregate_scores``,
        after the index walk had charged its frames (9 on this network)."""
        wl = tiny_histogram_workload
        query = wl.ground_truth.data[0]
        metrics = wl.network.fabric.metrics
        before = metrics.total_messages
        with pytest.raises(ValidationError, match="aggregation"):
            wl.network.range_query(query, 0.1, aggregation=policy)
        with pytest.raises(ValidationError, match="aggregation"):
            wl.network.knn_query(query, 5, aggregation=policy)
        with pytest.raises(ValidationError, match="aggregation"):
            wl.network.knn_query(query, 5, aggregation=policy, exact=True)
        assert metrics.total_messages == before

    def test_aggregation_override(self, tiny_histogram_workload):
        wl = tiny_histogram_workload
        query = wl.ground_truth.data[0]
        for policy in ("min", "sum", "product"):
            result = wl.network.range_query(query, 0.1, aggregation=policy)
            assert isinstance(result.peer_scores, dict)


class TestPointQueries:
    def test_finds_existing_item(self, tiny_histogram_workload):
        wl = tiny_histogram_workload
        network = wl.network
        peer = network.peers[2]
        target = peer.data[0]
        result = network.point_query(target)
        assert any(item.distance <= 1e-9 for item in result.items)

    def test_point_query_is_zero_radius_range(self, tiny_histogram_workload):
        wl = tiny_histogram_workload
        query = wl.ground_truth.data[5]
        a = wl.network.point_query(query)
        b = wl.network.range_query(query, 0.0)
        assert a.item_ids == b.item_ids


class TestGroundTruthConsistency:
    def test_centralized_index_from_network(self, tiny_histogram_workload):
        wl = tiny_histogram_workload
        gt = CentralizedIndex.from_network(wl.network)
        assert gt.n_items == wl.network.total_items
