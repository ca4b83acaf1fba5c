"""Tests for the network diagnostics API."""

import json

import numpy as np

from repro.core.network import HyperMConfig, HyperMNetwork


class TestStats:
    def _network(self, rng):
        net = HyperMNetwork(16, HyperMConfig(levels_used=3, n_clusters=3), rng=0)
        for p in range(4):
            net.add_peer(rng.random((15, 16)), np.arange(p * 15, (p + 1) * 15))
        net.publish_all()
        return net

    def test_structure(self, rng):
        stats = self._network(rng).stats()
        assert stats["peers"] == 4
        assert stats["online_peers"] == 4
        assert stats["total_items"] == 60
        assert set(stats["levels"]) == {"A", "D0", "D1"}
        for level_stats in stats["levels"].values():
            assert level_stats["nodes"] == 4
            assert level_stats["distinct_spheres"] >= 4
            assert level_stats["replication_factor"] >= 1.0
        assert stats["fabric"]["hops"] > 0
        assert stats["fabric"]["energy"] > 0

    def test_json_safe(self, rng):
        json.dumps(self._network(rng).stats())

    def test_reflects_churn(self, rng):
        net = self._network(rng)
        net.depart(2)
        stats = net.stats()
        assert stats["online_peers"] == 3
        assert stats["peers"] == 4

    def test_store_health(self, rng):
        stats = self._network(rng).stats()
        for level_stats in stats["levels"].values():
            store = level_stats["store"]
            assert store["live_rows"] == level_stats["distinct_spheres"]
            assert store["tombstones"] == 0
            assert store["compactions"] == 0
            # Every insert bumps the generation at least once.
            assert store["generation"] >= store["live_rows"]
            assert store["next_entry_id"] >= store["live_rows"]

    def test_withdraw_reflected_in_store_health(self, rng):
        net = self._network(rng)
        before = net.stats()
        net.withdraw_summaries(2)
        after = net.stats()
        for level, level_stats in after["levels"].items():
            store = level_stats["store"]
            prior = before["levels"][level]["store"]
            assert store["live_rows"] < prior["live_rows"]
            # Withdrawn rows become tombstones unless a compaction
            # already swept them.
            assert store["tombstones"] > 0 or store["compactions"] > 0
            assert store["generation"] > prior["generation"]

    def test_replication_factor_counts_memberships(self, rng):
        net = self._network(rng)
        stats = net.stats()
        for level, overlay in net.overlays.items():
            level_stats = stats["levels"][str(level)]
            memberships = sum(overlay.loads().values())
            distinct = overlay.level_store.n_live
            assert level_stats["stored_entries"] == memberships
            assert level_stats["distinct_spheres"] == distinct
            assert level_stats["replication_factor"] == (
                memberships / distinct
            )

    def test_unpublished_network(self, rng):
        net = HyperMNetwork(16, HyperMConfig(levels_used=2, n_clusters=2), rng=0)
        net.add_peer(rng.random((5, 16)))
        stats = net.stats()
        for level_stats in stats["levels"].values():
            assert level_stats["stored_entries"] == 0
            assert level_stats["replication_factor"] == 0.0
