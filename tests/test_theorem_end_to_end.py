"""The reproduction's central guarantee, property-tested over random
networks: Theorem 4.1's no-false-dismissal behaviour end to end.

For arbitrary (seeded) datasets, peer partitions, cluster counts, level
counts, and query radii: a range query contacting every positive-score
peer retrieves a **superset** of the true results, and filtering locally
keeps precision at exactly 1.0.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.baselines import CentralizedIndex
from repro.core.network import HyperMConfig, HyperMNetwork
from repro.overlay.baton import BatonNetwork
from repro.overlay.vbi import VBITree


def _build(seed: int, n_clusters: int, levels_used: int, overlay=None):
    rng = np.random.default_rng(seed)
    config = HyperMConfig(levels_used=levels_used, n_clusters=n_clusters)
    network = HyperMNetwork(16, config, rng=seed, overlay_factory=overlay)
    n_peers = 5
    for p in range(n_peers):
        network.add_peer(
            rng.random((20, 16)), np.arange(p * 20, (p + 1) * 20)
        )
    network.publish_all()
    return network, rng


@settings(max_examples=12, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    n_clusters=st.integers(1, 8),
    levels_used=st.integers(1, 5),
    radius=st.floats(min_value=0.05, max_value=1.2),
)
def test_no_false_dismissals_can(seed, n_clusters, levels_used, radius):
    network, rng = _build(seed, n_clusters, levels_used)
    truth_index = CentralizedIndex.from_network(network)
    query = network.peers[int(rng.integers(5))].data[
        int(rng.integers(20))
    ]
    truth = truth_index.range_search(query, radius)
    result = network.range_query(query, radius)
    assert truth <= result.item_ids
    # Local filtering keeps precision exact.
    assert result.item_ids <= truth


@settings(max_examples=6, deadline=None)
@given(seed=st.integers(0, 10_000), radius=st.floats(0.1, 1.0))
@pytest.mark.parametrize("overlay", [BatonNetwork, VBITree])
def test_no_false_dismissals_other_overlays(overlay, seed, radius):
    network, rng = _build(seed, 4, 3, overlay=overlay)
    truth_index = CentralizedIndex.from_network(network)
    query = network.peers[int(rng.integers(5))].data[0]
    truth = truth_index.range_search(query, radius)
    result = network.range_query(query, radius)
    assert truth <= result.item_ids


@settings(max_examples=12, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    n_clusters=st.integers(1, 8),
    levels_used=st.integers(1, 5),
    radius=st.floats(min_value=0.05, max_value=1.2),
)
def test_index_phase_never_dismisses_a_holding_peer(
    seed, n_clusters, levels_used, radius
):
    """Theorem 4.1 at the index phase itself: every peer holding a true
    range answer must survive min-aggregation with a strictly positive
    score (this is the property the intersection-fraction floor and the
    log-space volume ratios exist to protect — an underflow to 0.0 at any
    single level would erase the peer from the min)."""
    network, rng = _build(seed, n_clusters, levels_used)
    truth_index = CentralizedIndex.from_network(network)
    query = network.peers[int(rng.integers(5))].data[int(rng.integers(20))]
    truth = truth_index.range_search(query, radius)
    result = network.range_query(query, radius)
    # Item ids were assigned as arange(p*20, (p+1)*20): holder = id // 20.
    holding_peers = {item_id // 20 for item_id in truth}
    for peer in holding_peers:
        assert peer in result.peer_scores, (
            f"peer {peer} holds a true answer but was dismissed"
        )
        assert result.peer_scores[peer] > 0.0


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 10_000), k=st.integers(1, 15))
def test_knn_always_returns_k_when_available(seed, k):
    """With C >= 1 and enough items, the k-NN heuristic returns at least
    k candidates (possibly imperfect ones — that is the heuristic's
    documented trade-off)."""
    network, rng = _build(seed, 4, 3)
    query = network.peers[0].data[int(rng.integers(20))]
    result = network.knn_query(query, k, c=1.5)
    assert len(result.items) >= min(k, network.total_items) // 2
