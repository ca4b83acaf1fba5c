"""Churn tests: zone merge/handoff, CAN departure, peer removal semantics."""

import numpy as np
import pytest

from repro.core.network import HyperMConfig, HyperMNetwork
from repro.exceptions import QueryError
from repro.overlay.can import CANNetwork
from repro.overlay.can.zone import Zone
from tests.rows import held_values


def make_zone(lows, highs):
    return Zone(np.asarray(lows, dtype=float), np.asarray(highs, dtype=float))


class TestZoneMerge:
    def test_merge_halves(self):
        a = make_zone([0.0, 0.0], [0.5, 1.0])
        b = make_zone([0.5, 0.0], [1.0, 1.0])
        merged = a.merge_with(b)
        assert merged is not None
        assert merged.volume == pytest.approx(1.0)

    def test_merge_symmetric(self):
        a = make_zone([0.0, 0.0], [0.5, 0.5])
        b = make_zone([0.0, 0.5], [0.5, 1.0])
        assert a.merge_with(b) is not None
        assert b.merge_with(a) is not None

    def test_mismatched_spans_do_not_merge(self):
        a = make_zone([0.0, 0.0], [0.5, 0.5])
        b = make_zone([0.5, 0.0], [1.0, 1.0])
        assert a.merge_with(b) is None

    def test_no_merge_across_torus_seam(self):
        a = make_zone([0.0, 0.0], [0.25, 1.0])
        b = make_zone([0.75, 0.0], [1.0, 1.0])
        # They are torus neighbours but their union is not a box.
        assert a.is_neighbor(b)
        assert a.merge_with(b) is None

    def test_disjoint_do_not_merge(self):
        a = make_zone([0.0, 0.0], [0.25, 1.0])
        b = make_zone([0.5, 0.0], [1.0, 1.0])
        assert a.merge_with(b) is None

    def test_split_children_remerge(self):
        z = make_zone([0.25, 0.0], [0.75, 0.5])
        lower, upper = z.split()
        merged = lower.merge_with(upper)
        assert merged is not None
        assert np.allclose(merged.lows, z.lows)
        assert np.allclose(merged.highs, z.highs)


class TestCANLeave:
    def _populated_can(self, n=16, seed=0):
        can = CANNetwork(2, rng=seed)
        ids = can.grow(n)
        rng = np.random.default_rng(seed + 1)
        points = rng.random((50, 2))
        for i, p in enumerate(points):
            can.insert(ids[i % n], p, i)
        return can, points

    def test_zones_still_tile_after_leaves(self):
        can, __ = self._populated_can()
        rng = np.random.default_rng(5)
        while len(can) > 2:
            can.leave(int(rng.choice(can.node_ids)))
            assert np.isclose(can.total_zone_volume(), 1.0)
            # Every point still has exactly one owner.
            for __i in range(10):
                p = rng.random(2)
                owners = [
                    nid
                    for nid, zones in can.all_zones().items()
                    if any(z.contains(p) for z in zones)
                ]
                assert len(owners) == 1

    def test_entries_survive_leaves(self):
        can, points = self._populated_can()
        rng = np.random.default_rng(7)
        for __ in range(10):
            can.leave(int(rng.choice(can.node_ids)))
        held = set()
        for nid in can.node_ids:
            for value in held_values(can, nid):
                if isinstance(value, int):
                    held.add(value)
        assert held == set(range(50))

    def test_range_queries_complete_after_leaves(self):
        can, points = self._populated_can()
        rng = np.random.default_rng(9)
        for __ in range(8):
            can.leave(int(rng.choice(can.node_ids)))
        for __ in range(5):
            center = rng.random(2)
            radius = rng.uniform(0.1, 0.3)
            receipt = can.range_query(can.node_ids[0], center, radius)
            got = sorted(
                v for v in receipt.entries.values() if isinstance(v, int)
            )
            want = sorted(
                i
                for i, p in enumerate(points)
                if np.linalg.norm(p - center) <= radius + 1e-12
            )
            assert got == want

    def test_neighbor_tables_consistent_after_leave(self):
        can, __ = self._populated_can()
        can.leave(can.node_ids[3])
        for nid in can.node_ids:
            node = can.node(nid)
            for neighbor_id, zones in node.neighbors.items():
                assert neighbor_id in can.node_ids
                neighbor = can.node(neighbor_id)
                assert len(zones) == len(neighbor.zones)
                assert node.is_neighbor_of(neighbor)

    def test_routing_works_after_leaves(self):
        can, __ = self._populated_can()
        rng = np.random.default_rng(11)
        for __i in range(10):
            can.leave(int(rng.choice(can.node_ids)))
        from repro.overlay.can.routing import route_to_owner

        for __i in range(10):
            p = rng.random(2)
            owner, __path = route_to_owner(can, can.node_ids[0], p)
            assert can.node(owner).zone.contains(p)

    def test_leave_down_to_one_node(self):
        can = CANNetwork(2, rng=1)
        ids = can.grow(4)
        can.insert(ids[0], [0.3, 0.3], "x")
        for nid in list(can.node_ids)[:-1]:
            can.leave(nid)
        last = can.node_ids[0]
        assert np.isclose(can.node(last).zone.volume, 1.0)
        assert "x" in held_values(can, last)

    def test_leave_last_node_empties_overlay(self):
        can = CANNetwork(2, rng=2)
        nid = can.join()
        can.leave(nid)
        assert len(can) == 0


class TestPeerChurn:
    @pytest.fixture
    def network(self, rng):
        config = HyperMConfig(levels_used=3, n_clusters=3)
        net = HyperMNetwork(16, config, rng=0)
        for __ in range(6):
            net.add_peer(rng.random((25, 16)))
        net.publish_all()
        return net

    def test_offline_peer_returns_nothing(self, network, rng):
        query = network.peers[2].data[0]
        before = network.range_query(query, 0.8)
        assert any(i.peer_id == 2 for i in before.items)
        network.depart(2)
        after = network.range_query(query, 0.8)
        assert not any(i.peer_id == 2 for i in after.items)

    def test_index_survives_departures(self, network, rng):
        network.depart(1)
        network.depart(4)
        query = rng.random(16)
        result = network.range_query(query, 0.8)
        assert result.index_hops >= 0  # index queries still route
        online = {p for p, peer in network.peers.items() if peer.online}
        assert set(result.peers_contacted) <= online

    def test_withdraw_summaries_cleans_index(self, network):
        network.depart(3, withdraw_summaries=True)
        for level, overlay in network.overlays.items():
            for node_id in overlay.node_ids:
                for record in held_values(overlay, node_id):
                    assert record.peer_id != 3

    def test_abrupt_departure_leaves_dangling_summaries(self, network):
        network.depart(3)
        dangling = 0
        for overlay in network.overlays.values():
            for node_id in overlay.node_ids:
                dangling += sum(
                    1
                    for record in held_values(overlay, node_id)
                    if record.peer_id == 3
                )
        assert dangling > 0

    def test_query_from_departed_peer_rejected(self, network, rng):
        network.depart(0)
        with pytest.raises(QueryError):
            network.range_query(rng.random(16), 0.5, origin_peer=0)

    def test_knn_skips_offline_peers(self, network, rng):
        network.depart(2)
        result = network.knn_query(rng.random(16), 5)
        assert 2 not in result.peers_contacted

    def test_default_origin_skips_offline(self, network, rng):
        network.depart(0)
        result = network.range_query(rng.random(16), 0.5)
        assert result is not None

    def test_remove_unknown_peer(self, network):
        from repro.exceptions import ValidationError

        with pytest.raises(ValidationError):
            network.depart(99)
