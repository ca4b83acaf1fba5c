"""Tests for the exact k-NN refinement (extension beyond the paper)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.baselines import CentralizedIndex
from repro.core.network import HyperMConfig, HyperMNetwork


def build(seed=0, n_peers=6, items=25, dims=16):
    rng = np.random.default_rng(seed)
    config = HyperMConfig(levels_used=3, n_clusters=4)
    network = HyperMNetwork(dims, config, rng=seed)
    for p in range(n_peers):
        network.add_peer(
            rng.random((items, dims)), np.arange(p * items, (p + 1) * items)
        )
    network.publish_all()
    return network, rng


class TestExactKnn:
    def test_matches_ground_truth(self):
        network, rng = build(seed=1)
        truth_index = CentralizedIndex.from_network(network)
        for __ in range(5):
            query = rng.random(16)
            k = int(rng.integers(1, 12))
            result = network.knn_query(query, k, exact=True)
            truth = truth_index.knn(query, k)
            assert result.item_ids == truth, (k,)

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 5_000), k=st.integers(1, 20))
    def test_property_exactness(self, seed, k):
        network, rng = build(seed=seed % 17)  # reuse few networks via cache?
        truth_index = CentralizedIndex.from_network(network)
        query = network.peers[0].data[int(rng.integers(25))]
        result = network.knn_query(query, k, exact=True)
        assert result.item_ids == truth_index.knn(query, k)

    def test_exact_returns_exactly_k(self):
        network, rng = build(seed=2)
        result = network.knn_query(rng.random(16), 7, exact=True)
        assert len(result.items) == 7

    def test_exact_costs_more_than_heuristic(self):
        network, rng = build(seed=3)
        query = rng.random(16)
        heuristic = network.knn_query(query, 8)
        exact = network.knn_query(query, 8, exact=True)
        assert exact.index_hops >= heuristic.index_hops

    def test_exact_under_churn_is_best_effort(self):
        network, rng = build(seed=4)
        network.depart(2)
        query = rng.random(16)
        result = network.knn_query(query, 10, exact=True)
        # All retrieved items come from online peers; no crash, k items
        # still available from survivors.
        online = {
            p for p, peer in network.peers.items() if peer.online
        }
        assert {item.peer_id for item in result.items} <= online
        assert len(result.items) == 10

    def test_k_larger_than_network(self):
        network, rng = build(seed=5, n_peers=2, items=5)
        result = network.knn_query(rng.random(16), 50, exact=True)
        assert len(result.items) == 10  # everything there is
