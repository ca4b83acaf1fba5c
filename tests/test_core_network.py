"""Tests for HyperMNetwork construction and publication."""

import numpy as np
import pytest

from repro.core.network import HyperMConfig, HyperMNetwork
from repro.exceptions import ValidationError
from repro.overlay.ring import RingNetwork
from repro.wavelets.multiresolution import Level
from tests.rows import held_values


class TestConfig:
    def test_defaults_are_paper_operating_point(self):
        config = HyperMConfig()
        assert config.levels_used == 4
        assert config.n_clusters == 10
        assert config.aggregation == "min"

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"levels_used": 0},
            {"n_clusters": 0},
            {"aggregation": "median"},
            {"kmeans_restarts": 0},
        ],
    )
    def test_invalid_configs(self, kwargs):
        with pytest.raises(ValidationError):
            HyperMConfig(**kwargs)


class TestConstruction:
    def test_levels_structure(self):
        net = HyperMNetwork(64, HyperMConfig(levels_used=4), rng=0)
        assert [str(l) for l in net.levels] == ["A", "D0", "D1", "D2"]
        assert net.overlays[Level.detail(2)].dimensionality == 4

    def test_add_peer_joins_every_overlay(self, rng):
        net = HyperMNetwork(16, HyperMConfig(levels_used=3, n_clusters=2), rng=0)
        peer = net.add_peer(rng.random((10, 16)))
        for level in net.levels:
            node_id = net.overlay_node(level, peer.peer_id)
            assert node_id in net.overlays[level].node_ids

    def test_dimension_mismatch_rejected(self, rng):
        net = HyperMNetwork(16, rng=0)
        with pytest.raises(ValidationError):
            net.add_peer(rng.random((5, 32)))

    def test_unknown_overlay_node(self):
        net = HyperMNetwork(16, rng=0)
        with pytest.raises(ValidationError):
            net.overlay_node(Level.approximation(), 99)

    def test_total_items(self, rng):
        net = HyperMNetwork(16, HyperMConfig(levels_used=2, n_clusters=2), rng=0)
        net.add_peer(rng.random((10, 16)))
        net.add_peer(rng.random((15, 16)))
        assert net.total_items == 25


class TestPublication:
    def test_report_counts(self, rng):
        config = HyperMConfig(levels_used=3, n_clusters=4)
        net = HyperMNetwork(16, config, rng=0)
        for __ in range(3):
            net.add_peer(rng.random((20, 16)))
        report = net.publish_all()
        assert report.items_published == 60
        # At most K_p spheres per level per peer.
        assert report.spheres_inserted <= 3 * 3 * 4
        assert report.spheres_inserted >= 3 * 3  # at least 1 per level/peer
        assert report.total_hops == report.routing_hops + report.replica_hops
        assert report.energy > 0
        assert report.bytes_sent > 0

    def test_hops_per_item(self, rng):
        config = HyperMConfig(levels_used=2, n_clusters=2)
        net = HyperMNetwork(16, config, rng=0)
        net.add_peer(rng.random((50, 16)))
        report = net.publish_all()
        assert np.isclose(
            report.hops_per_item, report.total_hops / 50
        )

    def test_published_entries_present_in_overlays(self, rng):
        config = HyperMConfig(levels_used=2, n_clusters=3)
        net = HyperMNetwork(16, config, rng=0)
        net.add_peer(rng.random((20, 16)))
        net.publish_all()
        for level in net.levels:
            stored = sum(net.overlays[level].loads().values())
            assert stored >= 1

    def test_cluster_records_reference_peers(self, rng):
        config = HyperMConfig(levels_used=2, n_clusters=2)
        net = HyperMNetwork(16, config, rng=0)
        net.add_peer(rng.random((10, 16)))
        net.add_peer(rng.random((10, 16)))
        net.publish_all()
        level = net.levels[0]
        overlay = net.overlays[level]
        peer_ids = set()
        for node_id in overlay.node_ids:
            for record in held_values(overlay, node_id):
                peer_ids.add(record.peer_id)
        assert peer_ids == {0, 1}

    def test_merge_reports(self, rng):
        config = HyperMConfig(levels_used=2, n_clusters=2)
        net = HyperMNetwork(16, config, rng=0)
        p0 = net.add_peer(rng.random((10, 16)))
        p1 = net.add_peer(rng.random((10, 16)))
        r0 = net.publish_peer(p0.peer_id)
        r1 = net.publish_peer(p1.peer_id)
        merged = r0.merge(r1)
        assert merged.items_published == 20
        assert merged.total_hops == r0.total_hops + r1.total_hops


class TestOverlayIndependence:
    def test_runs_on_ring_overlay(self, rng):
        """The paper's claim: Hyper-M is overlay-agnostic."""
        config = HyperMConfig(levels_used=3, n_clusters=3)
        net = HyperMNetwork(
            16, config, rng=0, overlay_factory=RingNetwork
        )
        for __ in range(4):
            net.add_peer(rng.random((15, 16)))
        report = net.publish_all()
        assert report.items_published == 60
        result = net.range_query(rng.random(16), 0.5)
        assert result.peers_contacted


class TestDepartureSemantics:
    """depart() is the *clean-only* exit; crashes live in repro.faults."""

    @pytest.fixture
    def network(self, rng):
        config = HyperMConfig(levels_used=3, n_clusters=3)
        net = HyperMNetwork(16, config, rng=0)
        for __ in range(5):
            net.add_peer(rng.random((20, 16)))
        net.publish_all()
        return net

    def test_depart_hands_off_zones(self, network):
        counts = {
            level: len(overlay.node_ids)
            for level, overlay in network.overlays.items()
        }
        network.depart(2)
        assert not network.peers[2].online
        for level, overlay in network.overlays.items():
            assert len(overlay.node_ids) == counts[level] - 1

    def test_depart_keeps_index_routable(self, network, rng):
        network.depart(1)
        result = network.range_query(rng.random(16), 0.6)
        online = {p for p, peer in network.peers.items() if peer.online}
        assert set(result.peers_contacted) <= online

    def test_depart_never_leaves_crashed_nodes(self, network):
        """Clean departure must not touch the fault injector's registry."""
        from repro.faults import FaultPlan

        injector = network.fabric.install_faults(FaultPlan())
        network.depart(2)
        assert injector.crashed_peers == set()
        assert injector.crashed_nodes == set()

    def test_abrupt_failure_requires_faults_module(self, network):
        """There is no abrupt-departure flag here; crash_peer is the way."""
        from repro.faults import crash_peer

        with pytest.raises(ValidationError):
            crash_peer(network, 2)
