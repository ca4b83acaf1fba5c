"""Unit tests for the k-NN heuristic's internal machinery."""

from types import SimpleNamespace

import numpy as np

from repro.core.knn import _discover_level, _peers_to_contact
from repro.core.queries import RoutedSource
from repro.core.results import ClusterRecord
from repro.overlay.can import CANNetwork
from repro.serve.batch import StoreSource


class TestPeersToContact:
    def test_explicit_top_p(self):
        ranked = [(1, 50.0), (2, 30.0), (3, 5.0)]
        assert _peers_to_contact(ranked, 10, top_p=2) == ranked[:2]

    def test_cumulative_score_rule(self):
        ranked = [(1, 6.0), (2, 3.0), (3, 2.0), (4, 1.0)]
        # k=8: 6 < 8, 6+3 = 9 >= 8 → two peers.
        assert _peers_to_contact(ranked, 8, top_p=None) == ranked[:2]

    def test_takes_all_when_scores_insufficient(self):
        ranked = [(1, 1.0), (2, 1.0)]
        assert _peers_to_contact(ranked, 100, top_p=None) == ranked

    def test_single_peer_covers(self):
        ranked = [(1, 50.0), (2, 30.0)]
        assert _peers_to_contact(ranked, 10, top_p=None) == ranked[:1]

    def test_empty_ranking(self):
        assert _peers_to_contact([], 5, top_p=None) == []


class TestDiscoverLevel:
    """The one discovery loop, over both candidate sources."""

    LEVEL = "A"

    def _sources(self, spheres, *, nodes=8, seed=0):
        can = CANNetwork(2, rng=seed)
        ids = can.grow(nodes)
        for i, (center, radius, items) in enumerate(spheres):
            record = ClusterRecord(
                peer_id=i % 3, items=items, level_name=self.LEVEL
            )
            can.insert(ids[0], center, record, radius=radius)
        network = SimpleNamespace(
            overlays={self.LEVEL: can},
            overlay_node=lambda level, peer_id: ids[0],
            fabric=can.fabric,
        )
        return RoutedSource(network, origin_peer=0), StoreSource(network)

    def test_finds_enough_clusters(self):
        spheres = [
            ([0.5, 0.5], 0.05, 40),
            ([0.55, 0.5], 0.05, 40),
            ([0.9, 0.9], 0.02, 40),
        ]
        found = []
        for source in self._sources(spheres):
            eps, entries, hops = _discover_level(
                source, 0, self.LEVEL, np.array([0.5, 0.5]), 10.0
            )
            assert eps > 0
            assert len(entries)  # found the nearby clusters
            assert hops >= 0
            found.append((eps, sorted(r.items for r in entries.values())))
        assert found[0] == found[1]

    def test_empty_overlay_returns_no_entries(self):
        for source in self._sources([], nodes=4, seed=1):
            eps, entries, hops = _discover_level(
                source, 0, self.LEVEL, np.array([0.5, 0.5]), 5.0
            )
            assert len(entries) == 0

    def test_probes_expand_until_coverage(self):
        # A single far-away cluster: discovery must expand to reach it.
        spheres = [([0.95, 0.95], 0.02, 100)]
        for source in self._sources(spheres):
            eps, entries, __ = _discover_level(
                source, 0, self.LEVEL, np.array([0.05, 0.05]), 5.0
            )
            assert len(entries) == 1

    def test_store_source_charges_no_hops(self):
        spheres = [([0.95, 0.95], 0.02, 100)]
        routed, store = self._sources(spheres)
        key = np.array([0.05, 0.05])
        assert _discover_level(store, 0, self.LEVEL, key, 5.0)[2] == 0
        assert _discover_level(routed, 0, self.LEVEL, key, 5.0)[2] > 0


class TestKnnEdgeCases:
    def test_k_exceeds_total_items(self, tiny_histogram_workload):
        wl = tiny_histogram_workload
        result = wl.network.knn_query(wl.ground_truth.data[0], 10_000)
        assert len(result.items) > 0

    def test_duplicate_queries_deterministic_scores(self, tiny_histogram_workload):
        wl = tiny_histogram_workload
        q = wl.ground_truth.data[3]
        a = wl.network.knn_query(q, 5)
        b = wl.network.knn_query(q, 5)
        assert a.item_ids == b.item_ids
        assert a.peer_scores == b.peer_scores
