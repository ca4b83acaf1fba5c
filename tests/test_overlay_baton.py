"""Tests for the BATON tree overlay (the paper's other named substrate)."""

import numpy as np
import pytest

from repro.core.network import HyperMConfig, HyperMNetwork
from repro.exceptions import EmptyNetworkError, ValidationError
from repro.overlay.baton import BatonNetwork
from tests.rows import held_values


@pytest.fixture
def baton():
    net = BatonNetwork(2, rng=0)
    net.grow(15)
    return net


class TestTreeStructure:
    def test_level_order_fill(self, baton):
        levels = sorted(
            (node.level, node.pos) for node in baton._nodes.values()
        )
        # 15 nodes fill levels 0..3 completely.
        assert levels == [
            (lvl, pos) for lvl in range(4) for pos in range(1 << lvl)
        ]

    def test_ranges_partition_unit_interval(self, baton):
        starts, ids = baton._range_starts()
        assert starts[0] == 0.0
        nodes = [baton.node(nid) for nid in ids]
        for a, b in zip(nodes, nodes[1:]):
            assert a.range_hi == pytest.approx(b.range_lo)
        assert nodes[-1].range_hi == pytest.approx(1.0)

    def test_ranges_follow_in_order_traversal(self, baton):
        """In-order traversal of the tree visits ranges in sorted order."""
        visited = []

        def in_order(node_id):
            node = baton.node(node_id)
            if node.left_child is not None:
                in_order(node.left_child)
            visited.append(node.range_lo)
            if node.right_child is not None:
                in_order(node.right_child)

        root = baton._by_position[(0, 0)]
        in_order(root)
        assert visited == sorted(visited)

    def test_adjacent_links_form_ordered_chain(self, baton):
        starts, ids = baton._range_starts()
        for i, nid in enumerate(ids):
            node = baton.node(nid)
            if i > 0:
                assert node.left_adjacent == ids[i - 1]
            if i + 1 < len(ids):
                assert node.right_adjacent == ids[i + 1]

    def test_routing_tables_are_same_level(self, baton):
        for node in baton._nodes.values():
            for nid in node.left_routing + node.right_routing:
                assert baton.node(nid).level == node.level


class TestRoutingAndData:
    def test_routing_reaches_owner(self, baton, rng):
        for __ in range(20):
            p = rng.random(2)
            key = baton.scalar_key(p)
            for start in list(baton.node_ids)[:5]:
                owner, path = baton._route(start, key)
                assert baton.node(owner).owns(key)

    def test_routing_is_logarithmic(self):
        net = BatonNetwork(1, rng=1)
        net.grow(63)
        rng = np.random.default_rng(2)
        hops = []
        for __ in range(30):
            start = int(rng.choice(net.node_ids))
            __owner, path = net._route(start, float(rng.random()))
            hops.append(len(path))
        assert np.mean(hops) <= 10  # ~log2(63) with routing tables

    def test_point_roundtrip(self, baton):
        ids = baton.node_ids
        baton.insert(ids[0], [0.3, 0.7], "payload")
        receipt = baton.lookup(ids[9], [0.3, 0.7])
        assert receipt.entries.values() == ["payload"]

    def test_range_completeness(self, baton, rng):
        points = rng.random((60, 2))
        ids = baton.node_ids
        for i, p in enumerate(points):
            baton.insert(ids[i % len(ids)], p, i)
        for __ in range(8):
            center = rng.random(2)
            radius = float(rng.uniform(0.05, 0.3))
            receipt = baton.range_query(ids[0], center, radius)
            got = sorted(
                v for v in receipt.entries.values() if isinstance(v, int)
            )
            want = sorted(
                i
                for i, p in enumerate(points)
                if np.linalg.norm(p - center) <= radius + 1e-12
            )
            assert got == want

    def test_sphere_replication(self, baton):
        ids = baton.node_ids
        receipt = baton.insert(ids[0], [0.5, 0.5], "s", radius=0.2)
        assert receipt.replicas >= 1
        # Found when querying near the sphere edge.
        out = baton.range_query(ids[3], np.array([0.68, 0.5]), 0.05)
        assert "s" in out.entries.values()

    def test_empty_network_cover_raises(self):
        with pytest.raises(EmptyNetworkError):
            BatonNetwork(2, rng=8)._cover(np.array([0.5, 0.5]), 0.1)


class TestJoinSplitsRanges:
    def test_join_preserves_entries(self):
        net = BatonNetwork(2, rng=3)
        net.grow(3)
        rng = np.random.default_rng(4)
        points = rng.random((30, 2))
        for i, p in enumerate(points):
            net.insert(net.node_ids[0], p, i)
        net.grow(10)
        held = set()
        for nid in net.node_ids:
            for value in held_values(net, nid):
                if isinstance(value, int):
                    held.add(value)
        assert held == set(range(30))

    def test_entries_live_at_their_owner(self):
        net = BatonNetwork(2, rng=5)
        net.grow(10)
        rng = np.random.default_rng(6)
        points = rng.random((20, 2))
        for i, p in enumerate(points):
            net.insert(net.node_ids[0], p, i)
        net.grow(8)
        for i, p in enumerate(points):
            receipt = net.lookup(net.node_ids[0], p)
            assert i in receipt.entries.values()


class TestLeave:
    def test_leaf_departure(self, baton, rng):
        points = rng.random((30, 2))
        for i, p in enumerate(points):
            baton.insert(baton.node_ids[0], p, i)
        # Depart a deepest-level node (a leaf).
        leaf_id = next(
            nid
            for nid, node in baton._nodes.items()
            if node.level == 3
        )
        baton.leave(leaf_id)
        assert leaf_id not in baton.node_ids
        self._assert_complete(baton, points)

    def test_internal_departure_uses_substitute(self, baton, rng):
        points = rng.random((30, 2))
        for i, p in enumerate(points):
            baton.insert(baton.node_ids[0], p, i)
        root_id = baton._by_position[(0, 0)]
        baton.leave(root_id)
        assert root_id not in baton.node_ids
        assert (0, 0) in baton._by_position  # substitute filled the root
        self._assert_complete(baton, points)

    def test_many_departures_then_joins(self, baton, rng):
        points = rng.random((30, 2))
        for i, p in enumerate(points):
            baton.insert(baton.node_ids[0], p, i)
        ids = list(baton.node_ids)
        for nid in ids[:7]:
            baton.leave(nid)
        baton.grow(5)
        self._assert_complete(baton, points)

    @staticmethod
    def _assert_complete(net, points):
        starts, ids = net._range_starts()
        assert starts[0] == 0.0
        rng = np.random.default_rng(0)
        center = np.array([0.5, 0.5])
        receipt = net.range_query(net.node_ids[0], center, 0.4)
        got = sorted(
            v for v in receipt.entries.values() if isinstance(v, int)
        )
        want = sorted(
            i
            for i, p in enumerate(points)
            if np.linalg.norm(p - center) <= 0.4 + 1e-12
        )
        assert got == want


class TestHyperMOnBaton:
    def test_full_pipeline(self, rng):
        config = HyperMConfig(levels_used=3, n_clusters=3)
        net = HyperMNetwork(
            16, config, rng=0, overlay_factory=BatonNetwork
        )
        for p in range(5):
            net.add_peer(
                rng.random((20, 16)), np.arange(p * 20, (p + 1) * 20)
            )
        report = net.publish_all()
        assert report.items_published == 100
        query = net.peers[2].data[0]
        result = net.range_query(query, 0.6)
        assert any(item.distance <= 1e-9 for item in result.items)

    def test_invalid_grow(self):
        with pytest.raises(ValidationError):
            BatonNetwork(2, rng=0).grow(0)
