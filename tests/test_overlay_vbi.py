"""Tests for the VBI-tree overlay (the paper's third named substrate)."""

import numpy as np
import pytest

from repro.core.network import HyperMConfig, HyperMNetwork
from repro.exceptions import ValidationError
from repro.overlay.vbi import VBITree
from tests.rows import held_values


@pytest.fixture
def vbi():
    tree = VBITree(2, rng=0)
    tree.grow(12)
    return tree


class TestStructure:
    def test_regions_tile(self, vbi):
        assert np.isclose(vbi.total_region_volume(), 1.0)

    def test_unique_owner_per_point(self, vbi, rng):
        for __ in range(50):
            p = rng.random(2)
            owners = [
                nid
                for nid, leaf in vbi._nodes.items()
                if leaf.region.contains(p)
            ]
            assert len(owners) == 1

    def test_virtual_nodes_cover_children(self, vbi):
        for index, vn in vbi._tree.items():
            if vn.children is None:
                continue
            left, right = (vbi._tree[c] for c in vn.children)
            assert np.isclose(
                left.region.volume + right.region.volume, vn.region.volume
            )

    def test_managers_are_descendant_leaves(self, vbi):
        def leaves_below(index):
            vn = vbi._tree[index]
            if vn.leaf_id is not None:
                return {vn.leaf_id}
            out = set()
            for child in vn.children:
                out |= leaves_below(child)
            return out

        for index, vn in vbi._tree.items():
            assert vn.manager_id in leaves_below(index)

    def test_balanced_depth(self):
        tree = VBITree(2, rng=1)
        tree.grow(32)
        depths = [
            leaf.tree_index.bit_length() for leaf in tree._nodes.values()
        ]
        assert max(depths) - min(depths) <= 2


class TestRoutingAndData:
    def test_routing_reaches_owner(self, vbi, rng):
        for __ in range(20):
            p = rng.random(2)
            for start in list(vbi.node_ids)[:4]:
                owner, path = vbi._locate(start, p)
                assert vbi.node(owner).region.contains(p)
                assert len(path) <= 2 * len(vbi._tree)

    def test_point_roundtrip(self, vbi):
        ids = vbi.node_ids
        vbi.insert(ids[0], [0.3, 0.7], "payload")
        receipt = vbi.lookup(ids[7], [0.3, 0.7])
        assert receipt.entries.values() == ["payload"]

    def test_range_completeness(self, vbi, rng):
        points = rng.random((60, 2))
        ids = vbi.node_ids
        for i, p in enumerate(points):
            vbi.insert(ids[i % len(ids)], p, i)
        for __ in range(8):
            center = rng.random(2)
            radius = float(rng.uniform(0.05, 0.35))
            receipt = vbi.range_query(ids[0], center, radius)
            got = sorted(
                v for v in receipt.entries.values() if isinstance(v, int)
            )
            want = sorted(
                i
                for i, p in enumerate(points)
                if np.linalg.norm(p - center) <= radius + 1e-12
            )
            assert got == want

    def test_sphere_replication_covers_leaves(self, vbi):
        center = np.array([0.5, 0.5])
        radius = 0.3
        vbi.insert(vbi.node_ids[0], center, "s", radius=radius)
        for nid, leaf in vbi._nodes.items():
            holds = "s" in held_values(vbi, nid)
            overlaps = leaf.region.intersects_sphere(center, radius)
            assert holds == overlaps

    def test_routing_is_logarithmic(self):
        tree = VBITree(2, rng=2)
        tree.grow(64)
        rng = np.random.default_rng(3)
        hops = []
        for __ in range(30):
            start = int(rng.choice(tree.node_ids))
            __owner, path = tree._locate(start, rng.random(2))
            hops.append(len(path))
        assert np.mean(hops) <= 14  # ~2·log2(64) manager transitions


class TestLeave:
    def test_leaf_sibling_merge(self, vbi, rng):
        points = rng.random((30, 2))
        for i, p in enumerate(points):
            vbi.insert(vbi.node_ids[0], p, i)
        # Find a leaf whose sibling is a leaf.
        victim = None
        for nid, leaf in vbi._nodes.items():
            sibling = vbi._tree.get(vbi._sibling_index(leaf.tree_index))
            if sibling is not None and sibling.leaf_id is not None:
                victim = nid
                break
        assert victim is not None
        vbi.leave(victim)
        assert np.isclose(vbi.total_region_volume(), 1.0)
        self._assert_all_items_present(vbi, 30)

    def test_internal_sibling_uses_substitute(self, rng):
        tree = VBITree(2, rng=4)
        tree.grow(9)
        points = rng.random((20, 2))
        for i, p in enumerate(points):
            tree.insert(tree.node_ids[0], p, i)
        # The root's left child region owner after splits: pick a node
        # whose sibling slot is internal.
        victim = None
        for nid, leaf in tree._nodes.items():
            sibling = tree._tree.get(tree._sibling_index(leaf.tree_index))
            if sibling is not None and sibling.leaf_id is None:
                victim = nid
                break
        if victim is None:
            pytest.skip("no internal-sibling leaf in this configuration")
        tree.leave(victim)
        assert np.isclose(tree.total_region_volume(), 1.0)
        self._assert_all_items_present(tree, 20)

    def test_random_churn_sequence(self, rng):
        tree = VBITree(2, rng=5)
        tree.grow(10)
        points = rng.random((25, 2))
        for i, p in enumerate(points):
            tree.insert(tree.node_ids[0], p, i)
        for step in range(12):
            if len(tree) > 3 and rng.random() < 0.5:
                tree.leave(int(rng.choice(tree.node_ids)))
            else:
                tree.join()
            assert np.isclose(tree.total_region_volume(), 1.0)
        self._assert_all_items_present(tree, 25)
        # Queries remain complete after churn.
        center = np.array([0.5, 0.5])
        receipt = tree.range_query(tree.node_ids[0], center, 0.4)
        got = sorted(
            v for v in receipt.entries.values() if isinstance(v, int)
        )
        want = sorted(
            i
            for i, p in enumerate(points)
            if np.linalg.norm(p - center) <= 0.4 + 1e-12
        )
        assert got == want

    @staticmethod
    def _assert_all_items_present(tree, n):
        held = set()
        for nid in tree.node_ids:
            for value in held_values(tree, nid):
                if isinstance(value, int):
                    held.add(value)
        assert held == set(range(n))


class TestHyperMOnVBI:
    def test_full_pipeline(self, rng):
        config = HyperMConfig(levels_used=3, n_clusters=3)
        net = HyperMNetwork(16, config, rng=0, overlay_factory=VBITree)
        for p in range(5):
            net.add_peer(
                rng.random((20, 16)), np.arange(p * 20, (p + 1) * 20)
            )
        report = net.publish_all()
        assert report.items_published == 100
        query = net.peers[1].data[0]
        result = net.range_query(query, 0.6)
        assert any(item.distance <= 1e-9 for item in result.items)

    def test_invalid_grow(self):
        with pytest.raises(ValidationError):
            VBITree(2, rng=0).grow(0)
