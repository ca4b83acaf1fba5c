"""End-to-end integration tests: whole-lifecycle scenarios.

Each test drives a full session the way a deployment would: build,
publish, query, churn, repair — asserting cross-module invariants that
unit tests cannot see.
"""

import numpy as np
import pytest

from repro.core.baselines import CentralizedIndex
from repro.core.network import HyperMConfig, HyperMNetwork
from repro.core.serialization import load_summary, save_summary
from repro.datasets.histograms import generate_histograms
from repro.datasets.partition import partition_among_peers
from repro.evaluation.metrics import precision_recall
from repro.overlay.baton import BatonNetwork


def build_network(rng_seed=0, n_peers=10, overlay_factory=None):
    config = HyperMConfig(levels_used=4, n_clusters=5)
    dataset = generate_histograms(60, 10, 32, rng=rng_seed)
    ids = np.arange(dataset.n_items)
    parts = partition_among_peers(
        dataset.data, n_peers, clusters_per_peer=5, item_ids=ids,
        rng=rng_seed + 1,
    )
    network = HyperMNetwork(
        32, config, rng=rng_seed + 2, overlay_factory=overlay_factory
    )
    for data, item_ids in parts:
        network.add_peer(data, item_ids)
    network.publish_all()
    return network, dataset


class TestFullLifecycle:
    def test_session_with_churn_and_recovery(self):
        network, dataset = build_network(rng_seed=10)
        rng = np.random.default_rng(0)
        query = dataset.data[25]

        # Phase 1: healthy network answers with full-contact recall 1.0
        # on published items (Theorem 4.1 end-to-end).
        truth = CentralizedIndex.from_network(network).range_search(query, 0.15)
        result = network.range_query(query, 0.15)
        assert truth <= result.item_ids

        # Phase 2: three peers depart abruptly.
        for peer_id in (1, 4, 7):
            network.depart(peer_id)
        surviving_truth = CentralizedIndex.from_network_online_only(
            network
        ).range_search(query, 0.15)
        result = network.range_query(query, 0.15)
        assert surviving_truth <= result.item_ids  # survivors still complete

        # Phase 3: a surviving peer takes on new items and republishes.
        peer = network.peers[2]
        new_items = np.clip(
            dataset.data[:5] + rng.normal(0, 0.01, size=(5, 32)), 0, 1
        )
        peer.add_items(new_items, np.arange(9000, 9005))
        network.republish_peer(2)
        result = network.range_query(new_items[0], 0.05)
        assert any(item.item_id == 9000 for item in result.items)

    def test_cross_session_persistence(self, tmp_path):
        """Summaries persisted in session 1 power instant publication in
        session 2, with equivalent retrieval quality."""
        network1, dataset = build_network(rng_seed=20)
        paths = {}
        for peer_id, peer in network1.peers.items():
            paths[peer_id] = tmp_path / f"peer{peer_id}.json"
            save_summary(peer.summary, paths[peer_id])

        # Session 2: same devices, fresh overlay.
        config = HyperMConfig(levels_used=4, n_clusters=5)
        network2 = HyperMNetwork(32, config, rng=99)
        for peer_id, peer in network1.peers.items():
            network2.add_peer(peer.data, peer.item_ids)
        for peer_id in network2.peers:
            network2.publish_peer(
                peer_id, summary=load_summary(paths[peer_id])
            )

        query = dataset.data[10]
        truth = CentralizedIndex.from_network(network2).range_search(query, 0.15)
        result = network2.range_query(query, 0.15)
        assert truth <= result.item_ids

    def test_same_results_on_both_overlays(self):
        """Range-query completeness is overlay-independent."""
        can_net, dataset = build_network(rng_seed=30)
        baton_net, __ = build_network(rng_seed=30, overlay_factory=BatonNetwork)
        for qi in (3, 47, 111):
            query = dataset.data[qi]
            can_ids = can_net.range_query(query, 0.12).item_ids
            baton_ids = baton_net.range_query(query, 0.12).item_ids
            truth = CentralizedIndex.from_network(can_net).range_search(
                query, 0.12
            )
            assert truth <= can_ids
            assert truth <= baton_ids

    def test_aggregation_policies_all_complete_at_full_contact(self):
        """Sum/product aggregation also contact every candidate when
        unbounded, so completeness holds for all policies."""
        network, dataset = build_network(rng_seed=40)
        query = dataset.data[77]
        truth = CentralizedIndex.from_network(network).range_search(query, 0.12)
        for policy in ("min", "sum", "product"):
            result = network.range_query(query, 0.12, aggregation=policy)
            assert truth <= result.item_ids, policy

    def test_min_policy_prunes_hardest(self):
        network, dataset = build_network(rng_seed=50)
        query = dataset.data[5]
        candidates = {}
        for policy in ("min", "sum"):
            result = network.range_query(query, 0.12, aggregation=policy)
            candidates[policy] = set(result.peer_scores)
        # Min-score candidates are exactly the peers present at every
        # level; sum over the same intersection — candidate sets match,
        # but ranking differs. Check sets are consistent subsets.
        assert candidates["min"] == candidates["sum"]

    def test_energy_accounting_monotone(self):
        network, dataset = build_network(rng_seed=60)
        before = network.fabric.energy.total
        network.range_query(dataset.data[0], 0.1)
        after = network.fabric.energy.total
        assert after > before

    def test_metrics_by_kind_populated(self):
        network, __ = build_network(rng_seed=70)
        snapshot = network.fabric.metrics.snapshot()
        assert "join" in snapshot
        assert "insert" in snapshot
        assert snapshot["insert"]["hops"] > 0


class TestScalingSmoke:
    @pytest.mark.slow
    def test_fifty_peer_network(self):
        """A §6-scale network (50 peers) builds and answers correctly."""
        config = HyperMConfig(levels_used=4, n_clusters=10)
        dataset = generate_histograms(150, 8, 64, rng=0)
        ids = np.arange(dataset.n_items)
        parts = partition_among_peers(
            dataset.data, 50, clusters_per_peer=10, item_ids=ids, rng=1
        )
        network = HyperMNetwork(64, config, rng=2)
        for data, item_ids in parts:
            network.add_peer(data, item_ids)
        report = network.publish_all()
        assert report.items_published == dataset.n_items
        query = dataset.data[0]
        truth = CentralizedIndex.from_network(network).range_search(query, 0.12)
        result = network.range_query(query, 0.12)
        pr = precision_recall(result.item_ids, truth)
        assert pr.precision == 1.0
        assert pr.recall == 1.0
