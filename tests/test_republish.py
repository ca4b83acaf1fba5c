"""Tests for summary republishing (staleness recovery)."""

import numpy as np
import pytest

from repro.core.baselines import CentralizedIndex
from repro.core.network import HyperMConfig, HyperMNetwork
from repro.evaluation.metrics import precision_recall
from tests.rows import held_values


@pytest.fixture
def stale_network(rng):
    config = HyperMConfig(levels_used=3, n_clusters=4)
    net = HyperMNetwork(16, config, rng=0)
    for p in range(6):
        net.add_peer(
            rng.random((30, 16)), np.arange(p * 30, (p + 1) * 30)
        )
    net.publish_all()
    # Peer 2 accumulates unpublished items.
    net.peers[2].add_items(rng.random((30, 16)), np.arange(500, 530))
    return net


class TestRepublish:
    def test_republish_covers_new_items(self, stale_network):
        net = stale_network
        assert net.peers[2].unpublished_from == 30
        net.republish_peer(2)
        assert net.peers[2].unpublished_from == 60
        for level in net.levels:
            assert net.peers[2].summary.items_summarised(level) == 60

    def test_old_summaries_withdrawn(self, stale_network):
        net = stale_network
        counts_before = self._peer_entry_count(net, 2)
        net.republish_peer(2)
        counts_after = self._peer_entry_count(net, 2)
        # Entries exist and summarise 60 items; no duplicated generations.
        assert counts_after > 0
        for level, overlay in net.overlays.items():
            total_items = 0
            seen = set()
            store = overlay.level_store
            for node_id in overlay.node_ids:
                for row in overlay.node(node_id).membership.rows():
                    # Replicas of one row share a stable entry id, so the
                    # dedup no longer leans on CPython object identity.
                    record = store.value_of(row)
                    entry_id = store.entry_id_of(row)
                    if record.peer_id == 2 and entry_id not in seen:
                        seen.add(entry_id)
                        total_items += record.items
            assert total_items == 60, str(level)

    @staticmethod
    def _peer_entry_count(net, peer_id):
        count = 0
        for overlay in net.overlays.values():
            for node_id in overlay.node_ids:
                count += sum(
                    1
                    for record in held_values(overlay, node_id)
                    if record.peer_id == peer_id
                )
        return count

    def test_republish_restores_recall(self, stale_network, rng):
        net = stale_network
        # Query for one of the unpublished items from another peer: the
        # stale index cannot score peer 2 highly for it.
        target = net.peers[2].data[35]  # an unpublished item
        truth = CentralizedIndex.from_network(net).range_search(target, 0.6)
        stale = net.range_query(target, 0.6, max_peers=2, origin_peer=0)
        net.republish_peer(2)
        fresh = net.range_query(target, 0.6, max_peers=2, origin_peer=0)
        stale_recall = precision_recall(stale.item_ids, truth).recall
        fresh_recall = precision_recall(fresh.item_ids, truth).recall
        assert fresh_recall >= stale_recall
        # The exact unpublished item must now be findable.
        assert any(item.distance <= 1e-9 for item in fresh.items)

    def test_republish_costs_dissemination(self, stale_network):
        report = stale_network.republish_peer(2)
        assert report.items_published == 60
        assert report.spheres_inserted > 0
