"""Integration and property tests for the CAN overlay.

The key invariants: zones always tile the key space exactly; greedy
routing reaches the owner from any start; sphere replication covers every
zone the sphere overlaps; range queries are complete.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import EmptyNetworkError, RoutingError, ValidationError
from repro.net.messages import MessageKind
from repro.overlay.can import CANNetwork
from repro.overlay.can.routing import route_to_owner
from tests.rows import held_values


class TestMembership:
    def test_bootstrap_owns_everything(self):
        can = CANNetwork(2, rng=0)
        first = can.join()
        assert can.node(first).zone.volume == 1.0

    def test_zone_volumes_always_tile(self):
        can = CANNetwork(3, rng=1)
        for __ in range(40):
            can.join()
            assert np.isclose(can.total_zone_volume(), 1.0)

    @given(seed=st.integers(0, 1000), dim=st.integers(1, 4))
    @settings(max_examples=15)
    def test_every_point_has_unique_owner(self, seed, dim):
        can = CANNetwork(dim, rng=seed)
        can.grow(12)
        rng = np.random.default_rng(seed + 1)
        for __ in range(30):
            p = rng.random(dim)
            owners = [
                nid for nid, z in can.zones().items() if z.contains(p)
            ]
            assert len(owners) == 1

    def test_neighbor_symmetry(self):
        can = CANNetwork(2, rng=3)
        can.grow(25)
        for node_id in can.node_ids:
            node = can.node(node_id)
            for neighbor_id in node.neighbors:
                back = can.node(neighbor_id).neighbors
                assert node_id in back, (node_id, neighbor_id)

    def test_neighbor_zones_are_current(self):
        can = CANNetwork(2, rng=4)
        can.grow(20)
        for node_id in can.node_ids:
            node = can.node(node_id)
            for neighbor_id, snapshot in node.neighbors.items():
                actual = can.node(neighbor_id).zone
                assert len(snapshot) == 1
                assert np.array_equal(snapshot[0].lows, actual.lows)
                assert np.array_equal(snapshot[0].highs, actual.highs)

    def test_neighbor_relation_holds(self):
        can = CANNetwork(2, rng=5)
        can.grow(20)
        for node_id in can.node_ids:
            node = can.node(node_id)
            for neighbor_id, zones in node.neighbors.items():
                assert any(node.zone.is_neighbor(z) for z in zones)

    def test_join_at_explicit_point(self):
        can = CANNetwork(2, rng=6)
        can.join()
        new_id = can.join(np.array([0.9, 0.9]))
        assert can.node(new_id).zone.contains(np.array([0.9, 0.9]))

    def test_owner_of_empty_network(self):
        with pytest.raises(EmptyNetworkError):
            CANNetwork(2).owner_of(np.zeros(2))


class TestRouting:
    def test_reaches_owner_from_every_node(self, small_can):
        rng = np.random.default_rng(0)
        for __ in range(20):
            p = rng.random(2)
            expected = small_can.owner_of(p)
            for start in small_can.node_ids:
                owner, path = route_to_owner(small_can, start, p)
                assert owner == expected
                assert len(path) <= len(small_can.node_ids)

    def test_zero_hops_when_local(self, small_can):
        node_id = small_can.node_ids[3]
        center = small_can.node(node_id).zone.center
        owner, path = route_to_owner(small_can, node_id, center)
        assert owner == node_id
        assert path == []

    def test_high_dimensional_routing(self):
        can = CANNetwork(32, rng=7)
        can.grow(20)
        rng = np.random.default_rng(8)
        for __ in range(10):
            p = rng.random(32)
            owner, __path = route_to_owner(can, can.node_ids[0], p)
            assert can.node(owner).zone.contains(p)

    @pytest.mark.parametrize("point", [[1.5, 0.5], [0.5, -0.01]])
    def test_point_outside_cube_rejected_before_the_walk(
        self, small_can, point
    ):
        # No zone contains it: that is known before any hop, so no walk
        # (it used to backtrack through every node) and no message.
        origin = small_can.node_ids[0]
        before = small_can.fabric.metrics.total_messages
        with pytest.raises(ValidationError, match="unit cube"):
            small_can.lookup(origin, point)
        with pytest.raises(ValidationError, match="outside the unit cube"):
            small_can.range_query(origin, point, 0.1)
        assert small_can.fabric.metrics.total_messages == before

    def test_disconnected_neighbour_graph_is_a_routing_error(self, small_can):
        origin = small_can.node_ids[0]
        point = small_can.node(small_can.node_ids[-1]).zone.center
        for node_id in small_can.node_ids:
            small_can.node(node_id).neighbors = {}
        with pytest.raises(RoutingError, match="disconnected"):
            small_can.lookup(origin, point)


class TestInsertLookup:
    def test_point_roundtrip(self, small_can):
        ids = small_can.node_ids
        small_can.insert(ids[0], [0.3, 0.7], "payload")
        receipt = small_can.lookup(ids[5], [0.3, 0.7])
        assert receipt.entries.values() == ["payload"]

    def test_insert_stored_at_owner(self, small_can):
        key = np.array([0.42, 0.17])
        receipt = small_can.insert(small_can.node_ids[0], key, "x")
        assert receipt.owner == small_can.owner_of(key)
        assert "x" in held_values(small_can, receipt.owner)

    def test_point_insert_no_replicas(self, small_can):
        receipt = small_can.insert(small_can.node_ids[0], [0.5, 0.5], "x")
        assert receipt.replicas == 0
        assert receipt.total_hops == receipt.routing_hops

    def test_insert_outside_cube_rejected(self, small_can):
        with pytest.raises(ValidationError):
            small_can.insert(small_can.node_ids[0], [1.5, 0.5], "x")

    def test_metrics_charged(self):
        can = CANNetwork(2, rng=9)
        can.grow(10)
        before = can.fabric.metrics.kind(MessageKind.INSERT).hops
        receipt = can.insert(can.node_ids[0], [0.9, 0.1], "x")
        after = can.fabric.metrics.kind(MessageKind.INSERT).hops
        assert after - before == receipt.routing_hops


class TestSphereReplication:
    def test_replicated_to_every_overlapping_zone(self, small_can):
        center = np.array([0.5, 0.5])
        radius = 0.25
        small_can.insert(small_can.node_ids[0], center, "s", radius=radius)
        for node_id in small_can.node_ids:
            node = small_can.node(node_id)
            overlaps = node.zone.intersects_sphere(center, radius)
            holds = "s" in held_values(small_can, node_id)
            assert holds == overlaps, node_id

    def test_replica_count_in_receipt(self, small_can):
        receipt = small_can.insert(
            small_can.node_ids[0], [0.5, 0.5], "s", radius=0.3
        )
        holders = sum(
            1
            for nid in small_can.node_ids
            if "s" in held_values(small_can, nid)
        )
        assert holders == receipt.replicas + 1

    def test_tiny_sphere_single_holder(self, small_can):
        receipt = small_can.insert(
            small_can.node_ids[0], [0.31, 0.29], "tiny", radius=1e-6
        )
        # A tiny sphere still replicates if it touches a boundary, but
        # almost surely lands inside one zone.
        assert receipt.replicas <= 3


class TestRangeQuery:
    def test_completeness_against_brute_force(self, small_can, rng):
        points = rng.random((80, 2))
        for i, p in enumerate(points):
            small_can.insert(small_can.node_ids[i % 16], p, i)
        for __ in range(10):
            center = rng.random(2)
            radius = rng.uniform(0.05, 0.4)
            receipt = small_can.range_query(
                small_can.node_ids[0], center, radius
            )
            got = sorted(
                v for v in receipt.entries.values() if isinstance(v, int)
            )
            want = sorted(
                i
                for i, p in enumerate(points)
                if np.linalg.norm(p - center) <= radius + 1e-12
            )
            assert got == want

    def test_finds_replicated_spheres_once(self, small_can):
        small_can.insert(small_can.node_ids[0], [0.5, 0.5], "s", radius=0.3)
        receipt = small_can.range_query(
            small_can.node_ids[1], np.array([0.4, 0.6]), 0.2
        )
        assert receipt.entries.values().count("s") == 1

    def test_zero_radius_query(self, small_can):
        small_can.insert(small_can.node_ids[0], [0.5, 0.5], "pt")
        receipt = small_can.range_query(
            small_can.node_ids[0], np.array([0.5, 0.5]), 0.0
        )
        assert "pt" in receipt.entries.values()

    def test_visits_only_intersecting_zones_plus_start(self, small_can):
        center = np.array([0.2, 0.2])
        radius = 0.1
        receipt = small_can.range_query(
            small_can.node_ids[0], center, radius
        )
        for visited in receipt.nodes_visited[1:]:
            zone = small_can.node(visited).zone
            assert zone.intersects_sphere(center, radius)

    def test_hops_accounting(self, small_can):
        receipt = small_can.range_query(
            small_can.node_ids[0], np.array([0.5, 0.5]), 0.2
        )
        assert receipt.total_hops == receipt.routing_hops + receipt.flood_hops
        # Flood hops = nodes visited beyond the first.
        assert receipt.flood_hops == len(receipt.nodes_visited) - 1
