"""Tests for the Figure 5 k-NN heuristic."""

import numpy as np
import pytest

from repro.core.network import HyperMConfig
from repro.evaluation.metrics import precision_recall
from repro.evaluation.workloads import build_histogram_network
from repro.exceptions import QueryError
from repro.faults import FaultPlan
from repro.net.messages import MessageKind
from repro.overlay.adapt import AdaptConfig
from repro.runtime import run_context


class TestKnnQueries:
    def test_returns_items(self, tiny_histogram_workload, rng):
        wl = tiny_histogram_workload
        query = wl.ground_truth.data[int(rng.integers(wl.ground_truth.n_items))]
        result = wl.network.knn_query(query, 5)
        assert result.requested_k == 5
        assert len(result.items) >= 1

    def test_reasonable_recall(self, tiny_histogram_workload, rng):
        wl = tiny_histogram_workload
        recalls = []
        for __ in range(6):
            query = wl.ground_truth.data[
                int(rng.integers(wl.ground_truth.n_items))
            ]
            truth = wl.ground_truth.knn(query, 5)
            result = wl.network.knn_query(query, 5)
            recalls.append(precision_recall(result.item_ids, truth).recall)
        assert np.mean(recalls) > 0.4  # paper balances ~0.5+; small net is noisy

    def test_self_is_always_found(self, tiny_histogram_workload):
        """The query item itself is its own nearest neighbour; the index
        must lead back to its holder."""
        wl = tiny_histogram_workload
        peer = wl.network.peers[1]
        query = peer.data[3]
        result = wl.network.knn_query(query, 3)
        assert any(item.distance <= 1e-9 for item in result.items)

    def test_items_sorted(self, tiny_histogram_workload):
        wl = tiny_histogram_workload
        result = wl.network.knn_query(wl.ground_truth.data[0], 5)
        dists = [item.distance for item in result.items]
        assert dists == sorted(dists)

    def test_top_k_ids_size(self, tiny_histogram_workload):
        wl = tiny_histogram_workload
        result = wl.network.knn_query(wl.ground_truth.data[0], 4)
        assert len(result.top_k_ids()) <= 4

    def test_c_increases_retrieved_volume(self, tiny_histogram_workload):
        wl = tiny_histogram_workload
        query = wl.ground_truth.data[10]
        small = wl.network.knn_query(query, 8, c=1.0)
        large = wl.network.knn_query(query, 8, c=2.0)
        assert len(large.items) >= len(small.items)

    def test_top_p_limits_contacts(self, tiny_histogram_workload):
        wl = tiny_histogram_workload
        result = wl.network.knn_query(wl.ground_truth.data[0], 5, top_p=2)
        assert len(result.peers_contacted) <= 2

    def test_epsilon_estimates_recorded(self, tiny_histogram_workload):
        wl = tiny_histogram_workload
        result = wl.network.knn_query(wl.ground_truth.data[0], 5)
        assert set(result.epsilon_per_level) == set(wl.network.levels)
        assert all(e >= 0 for e in result.epsilon_per_level.values())

    def test_invalid_k(self, tiny_histogram_workload):
        network = tiny_histogram_workload.network
        sent = network.fabric.metrics.snapshot()
        for k in (0, 2.5, True, np.float64(3.0)):
            with pytest.raises(QueryError):
                network.knn_query(tiny_histogram_workload.ground_truth.data[0], k)
        # Refused before the index phase: no frame was charged.
        assert network.fabric.metrics.snapshot() == sent

    def test_invalid_c(self, tiny_histogram_workload):
        network = tiny_histogram_workload.network
        sent = network.fabric.metrics.snapshot()
        for c in (0.0, float("nan"), float("inf"), -float("inf")):
            with pytest.raises(QueryError):
                network.knn_query(
                    tiny_histogram_workload.ground_truth.data[0], 5, c=c
                )
        assert network.fabric.metrics.snapshot() == sent

    def test_index_hops_charged(self, tiny_histogram_workload):
        wl = tiny_histogram_workload
        result = wl.network.knn_query(wl.ground_truth.data[0], 5)
        assert result.index_hops >= 0


def _network(adapt=None, fault_plan=None):
    """The ``tiny_histogram_workload`` network, built under a run context."""
    with run_context(adapt=adapt, fault_plan=fault_plan):
        return build_histogram_network(
            n_peers=8,
            n_objects=40,
            views_per_object=8,
            n_bins=32,
            config=HyperMConfig(levels_used=3, n_clusters=4),
            rng=99,
        )


class TestKnnSharesTheRangeRetrievalStep:
    """k-NN retrieval is the range query's: same dedup, same detector."""

    def test_adapted_repeat_ships_fewer_data_bytes(self):
        wl = _network(adapt=AdaptConfig())
        network = wl.network
        data = network.fabric.metrics.by_kind

        def data_bytes():
            bucket = data.get(MessageKind.DATA)
            return 0 if bucket is None else bucket.bytes

        query = wl.ground_truth.data[0]
        origin = network.n_peers - 1
        shipped = []
        answers = []
        for __ in range(2):
            before = data_bytes()
            result = network.knn_query(query, 8, origin_peer=origin)
            shipped.append(data_bytes() - before)
            answers.append(
                [(item.item_id, item.distance) for item in result.items]
            )
        assert shipped[0] > 0
        assert shipped[1] < shipped[0]
        assert answers[1] == answers[0]

    def test_lost_replies_reach_the_failure_detector(self):
        wl = _network(fault_plan=FaultPlan(loss=0.6, seed=4))
        network = wl.network
        injector = network.fabric.faults
        queries = wl.ground_truth.data[::5][:8]
        origin = network.n_peers - 1
        for ask in (
            lambda q: network.knn_query(q, 5, origin_peer=origin),
            lambda q: network.range_query(q, 0.2, origin_peer=origin),
        ):
            before = injector.counters.get("contact_failures", 0)
            results = [ask(query) for query in queries]
            failed = sum(len(r.failed_contacts) for r in results)
            assert failed > 0
            assert injector.counters["contact_failures"] - before == failed
            for result in results:
                assert not set(result.peers_contacted) & set(
                    result.failed_contacts
                )
