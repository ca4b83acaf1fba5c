"""The zone table against the ``Zone`` objects it replaced on the hot path.

``overlay/can/table.py`` answers "routing key of every node for this
point" and "which nodes meet this ball" in one array pass per routed
operation. It is compute, not protocol: keys, verdicts, paths, flood
orders and replica lists must equal what the object walk
(``tests/can_reference.py``, the pre-table code) produces — exactly,
ties included — on overlays with multi-zone (pinwheel) nodes and for
points on cube faces, zone boundaries and the torus seam.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.overlay.can import CANNetwork
from repro.overlay.can.routing import route_to_owner
from repro.overlay.can.table import ZoneTable
from tests import can_reference as reference


def grown_overlay(dim: int, seed: int, joins: int, shakes: int) -> CANNetwork:
    """A CAN grown by random joins, then shaken by leaves, hand-offs, rejoins.

    Midpoint splits always leave a mergeable sibling pair somewhere, so
    a departure alone never strands a zone; the off-centre
    ``rebalance_zone`` hand-offs are what make multi-zone nodes (and,
    after them, true pinwheel takeovers on ``leave``) occur.
    """
    can = CANNetwork(dim, rng=seed)
    can.grow(joins)
    rng = np.random.default_rng(seed)
    for __ in range(shakes):
        action = rng.integers(3)
        if action == 0 and len(can) > 2:
            can.leave(int(rng.choice(can.node_ids)))
        elif action == 1:
            can.rebalance_zone(
                int(rng.choice(can.node_ids)), fraction=rng.choice([0.5, 0.3])
            )
        else:
            can.join()
    return can


overlays = st.builds(
    grown_overlay,
    dim=st.integers(1, 8),
    seed=st.integers(0, 10**6),
    joins=st.integers(2, 24),
    shakes=st.integers(0, 12),
)


def draw_point(data, can: CANNetwork) -> np.ndarray:
    """Per coordinate: anywhere in [0, 1], or exactly on a zone boundary.

    Boundaries include 0.0 and 1.0, so cube faces and the seam (where a
    zone across the wraparound sits at torus distance 0 without
    containing the point) come up constantly.
    """
    table = can.zone_table()
    boundaries = np.unique(np.concatenate([table.lo, table.hi], axis=None))
    coordinate = st.one_of(
        st.floats(min_value=0.0, max_value=1.0),
        st.sampled_from(boundaries.tolist()),
    )
    return np.array(
        data.draw(
            st.lists(
                coordinate,
                min_size=can.dimensionality,
                max_size=can.dimensionality,
            )
        )
    )


def draw_radius(data, can: CANNetwork, center: np.ndarray) -> float:
    """A free radius, or exactly some zone's distance (a tangent ball)."""
    zones = [z for zs in can.all_zones().values() for z in zs]
    return data.draw(
        st.one_of(
            st.floats(min_value=0.0, max_value=1.5),
            st.sampled_from(
                [zone.euclidean_distance_to(center) for zone in zones]
            ),
        )
    )


def penalty(node_id: int) -> float:
    """A deterministic, tie-rich stand-in for the adaptation penalty."""
    return float((node_id * 7) % 3)


class TestTableMatchesZoneObjects:
    @given(can=overlays, data=st.data())
    def test_routing_keys_equal_snapshot_distance(self, can, data):
        point = draw_point(data, can)
        keys = can.zone_table().routing_keys(point)
        assert list(keys) == can.node_ids
        for node_id, zones in can.all_zones().items():
            # == on floats: the walk's ordering, ties included, is only
            # safe if the keys are the same bits.
            assert keys[node_id] == reference.snapshot_distance(zones, point)
            assert (keys[node_id] < 0.0) == can.node(node_id).contains(point)

    @given(can=overlays, data=st.data())
    def test_keys_order_neighbours_as_the_object_walk_did(self, can, data):
        point = draw_point(data, can)
        keys = can.zone_table().routing_keys(point)
        for node_id in can.node_ids:
            neighbors = can.node(node_id).neighbors
            by_table = sorted((keys[nid], nid) for nid in neighbors)
            by_object = sorted(
                (reference.snapshot_distance(zones, point), nid)
                for nid, zones in neighbors.items()
            )
            assert by_table == by_object

    @given(can=overlays, data=st.data())
    def test_meeting_equals_intersects_sphere(self, can, data):
        center = draw_point(data, can)
        radius = draw_radius(data, can, center)
        meets = can.zone_table().meeting(center, radius)
        for node_id in can.node_ids:
            assert (node_id in meets) == can.node(
                node_id
            ).intersects_sphere(center, radius)

    def test_rows_follow_all_zones(self):
        can = multi_zone_overlay()
        assert reference.table_is_current(can)
        counts = [len(zs) for zs in can.all_zones().values()]
        assert can.zone_table().starts.tolist() == np.cumsum(
            [0] + counts[:-1]
        ).tolist()


def multi_zone_overlay() -> CANNetwork:
    """A 2-d overlay with several multi-zone nodes."""
    can = grown_overlay(2, 3, 12, 12)
    assert sum(len(zs) > 1 for zs in can.all_zones().values()) >= 2
    return can


class TestWalksMatchTheObjectWalk:
    @given(can=overlays, data=st.data())
    def test_route_is_identical(self, can, data):
        point = draw_point(data, can)
        start = data.draw(st.sampled_from(can.node_ids))
        assert route_to_owner(can, start, point) == reference.route_to_owner(
            can, start, point
        )
        assert route_to_owner(
            can, start, point, penalty=penalty
        ) == reference.route_to_owner(can, start, point, penalty=penalty)

    @given(can=overlays, data=st.data())
    def test_flood_visits_the_same_nodes_in_the_same_order(self, can, data):
        center = draw_point(data, can)
        radius = draw_radius(data, can, center)
        origin = data.draw(st.sampled_from(can.node_ids))
        owner, path = reference.route_to_owner(can, origin, center)
        expected = [owner] + reference.flood_order(
            can, [owner], center, radius
        )
        receipt = can.range_query(origin, center, radius)
        assert receipt.nodes_visited == expected
        assert receipt.routing_hops == len(path)
        assert receipt.flood_hops == len(expected) - 1

    @given(can=overlays, data=st.data())
    def test_replica_lists_are_identical(self, can, data):
        key = draw_point(data, can)
        radius = draw_radius(data, can, key)
        owner = can.owner_of(key)
        expected = reference.flood_order(can, [owner], key, radius)
        row = can.level_store.add(key, radius, "sphere")
        can.node(owner).add_row(row)
        assert can.extend_replication(row, [owner]) == expected
        # Growing from several holders at once (the delta-publish path).
        holders = [owner] + expected[::2]
        grown = can.level_store.add(key, radius, "grown")
        assert can.extend_replication(
            grown, holders
        ) == reference.flood_order(can, holders, key, radius)

    def test_multi_zone_nodes_route_and_flood_identically(self):
        can = multi_zone_overlay()
        rng = np.random.default_rng(5)
        for __ in range(50):
            point = rng.random(2).round(rng.integers(0, 3))
            start = int(rng.choice(can.node_ids))
            assert route_to_owner(
                can, start, point
            ) == reference.route_to_owner(can, start, point)
            owner = can.owner_of(point)
            receipt = can.range_query(owner, point, 0.25)
            assert receipt.nodes_visited == [owner] + reference.flood_order(
                can, [owner], point, 0.25
            )


class TestInvalidation:
    @pytest.mark.parametrize(
        "mutate",
        [
            lambda can: can.join(),
            lambda can: can.leave(can.node_ids[2]),
            lambda can: can.rebalance_zone(can.node_ids[0]),
        ],
        ids=["join", "leave", "rebalance_zone"],
    )
    def test_topology_mutations_drop_the_table(self, small_can, mutate):
        stale = small_can.zone_table()
        mutate(small_can)
        assert small_can.zone_table() is not stale
        assert reference.table_is_current(small_can)

    def test_reads_keep_the_table(self, small_can):
        table = small_can.zone_table()
        small_can.insert(small_can.node_ids[0], [0.4, 0.6], "x", radius=0.2)
        small_can.range_query(small_can.node_ids[1], [0.4, 0.6], 0.3)
        small_can.lookup(small_can.node_ids[2], [0.4, 0.6])
        assert small_can.zone_table() is table


def _key_bytes(keys: dict) -> bytes:
    return np.array(list(keys.values())).tobytes()


class TestBatchedKernels:
    """A batch row is the one-point answer, bit for bit, in any batch."""

    @staticmethod
    def _assert_rows_match(can, points, radii):
        table = can.zone_table()
        batched_keys = table.routing_keys_many(points)
        batched_meets = table.meeting_many(points, radii)
        assert len(batched_keys) == len(batched_meets) == len(points)
        for point, radius, keys, meets in zip(
            points, radii, batched_keys, batched_meets
        ):
            single = table.routing_keys(point)
            assert keys == single
            assert list(keys) == can.node_ids
            assert _key_bytes(keys) == _key_bytes(single)
            for node_id, zones in can.all_zones().items():
                assert keys[node_id] == reference.snapshot_distance(
                    zones, point
                )
            assert meets == table.meeting(point, radius)
            assert meets == {
                node_id for node_id in can.node_ids
                if can.node(node_id).intersects_sphere(point, radius)
            }

    @given(
        can=st.builds(
            grown_overlay,
            dim=st.sampled_from([1, 2, 4]),
            seed=st.integers(0, 10**6),
            joins=st.integers(2, 24),
            shakes=st.integers(0, 12),
        ),
        data=st.data(),
    )
    def test_rows_equal_one_point_answers(self, can, data):
        n = data.draw(st.integers(1, 8))
        d = can.dimensionality
        drawn = [draw_point(data, can) for __ in range(n)]
        # Always: the torus seam, the far cube face, and radius 0.
        points = np.array(drawn + [np.zeros(d), np.ones(d)])
        radii = [draw_radius(data, can, p) for p in drawn] + [0.0, 0.0]
        self._assert_rows_match(can, points, radii)

    def test_pinwheel_nodes_batch_like_single_points(self):
        can = multi_zone_overlay()
        rng = np.random.default_rng(9)
        points = rng.random((40, 2)).round(rng.integers(0, 3))
        points[:4] = [[0.0, 0.5], [1.0, 1.0], [1.0, 0.0], [0.5, 1.0]]
        radii = rng.uniform(0.0, 0.4, 40)
        radii[::5] = 0.0
        self._assert_rows_match(can, points, radii)

    def test_batched_insert_routes_and_covers_like_the_object_walk(self):
        can = multi_zone_overlay()
        rng = np.random.default_rng(4)
        keys = rng.random((12, 2)).round(rng.integers(0, 3))
        radii = rng.uniform(0.0, 0.3, 12)
        radii[::4] = 0.0
        origin = can.node_ids[1]
        expected = []
        for key, radius in zip(keys, radii):
            owner, path = reference.route_to_owner(can, origin, key)
            replicas = (
                reference.flood_order(can, [owner], key, radius)
                if radius > 0 else []
            )
            expected.append((owner, len(path), len(replicas)))
        receipts = can.insert_many(origin, keys, list(range(12)), radii)
        assert [
            (r.owner, r.routing_hops, r.replicas) for r in receipts
        ] == expected


class TestWorkCounts:
    """The zone-table work an operation does, counted call by call."""

    KERNELS = ("routing_keys_many", "meeting_many", "routing_keys", "meeting")

    def test_an_insert_batch_is_one_zone_table_pass(self, monkeypatch):
        calls: Counter = Counter()
        for name in self.KERNELS:
            def counted(table, *args, _name=name, _kernel=getattr(ZoneTable, name)):
                calls[_name] += 1
                return _kernel(table, *args)

            monkeypatch.setattr(ZoneTable, name, counted)
        can = grown_overlay(2, seed=7, joins=16, shakes=4)
        rng = np.random.default_rng(2)
        radii = rng.uniform(0.0, 0.3, 24)
        radii[::3] = 0.0
        calls.clear()
        receipts = can.insert_many(
            can.node_ids[0], rng.random((24, 2)), list(range(24)), radii
        )
        assert sum(receipt.replicas for receipt in receipts) > 0
        assert calls == {"routing_keys_many": 1, "meeting_many": 1}
