"""Tests for the Z-order ring overlay (the second substrate)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.overlay.ring import RingNetwork, covering_intervals, morton_key


class TestMortonKey:
    def test_in_unit_interval(self, rng):
        for __ in range(50):
            p = rng.random(3)
            key = morton_key(p, 8)
            assert 0.0 <= key < 1.0

    def test_identity_in_one_dim(self):
        for v in (0.0, 0.25, 0.5, 0.99):
            assert abs(morton_key(np.array([v]), 16) - v) < 2**-16 + 1e-12

    def test_locality_same_cell(self):
        a = morton_key(np.array([0.1001, 0.2001]), 8)
        b = morton_key(np.array([0.1002, 0.2002]), 8)
        assert abs(a - b) < 2**-10

    def test_distinct_cells_distinct_keys(self):
        a = morton_key(np.array([0.1, 0.1]), 8)
        b = morton_key(np.array([0.9, 0.9]), 8)
        assert a != b

    def test_boundary_clipping(self):
        assert 0.0 <= morton_key(np.array([1.0, 1.0]), 8) < 1.0


class TestCoveringIntervals:
    @given(seed=st.integers(0, 500))
    @settings(max_examples=20)
    def test_box_points_are_covered(self, seed):
        rng = np.random.default_rng(seed)
        dim = int(rng.integers(1, 4))
        lows = rng.random(dim) * 0.5
        highs = lows + rng.random(dim) * 0.4
        highs = np.minimum(highs, 1.0)
        bits = 6
        intervals = covering_intervals(lows, highs, bits)
        for __ in range(30):
            p = lows + rng.random(dim) * (highs - lows)
            key = morton_key(p, bits)
            assert any(lo <= key < hi + 1e-12 for lo, hi in intervals), (
                p, key, intervals,
            )

    def test_full_cube_is_single_interval(self):
        intervals = covering_intervals(np.zeros(2), np.ones(2), 6)
        assert intervals == [(0.0, 1.0)]

    def test_intervals_sorted_and_disjoint(self):
        lows = np.array([0.2, 0.3])
        highs = np.array([0.7, 0.8])
        intervals = covering_intervals(lows, highs, 6)
        for (lo1, hi1), (lo2, hi2) in zip(intervals, intervals[1:]):
            assert hi1 < lo2


class TestRingNetwork:
    def test_grow_and_positions_sorted(self):
        ring = RingNetwork(2, rng=0)
        ring.grow(20)
        assert len(ring) == 20
        assert ring._positions == sorted(ring._positions)

    def test_point_roundtrip(self):
        ring = RingNetwork(2, rng=1)
        ids = ring.grow(15)
        ring.insert(ids[0], [0.3, 0.7], "payload")
        receipt = ring.lookup(ids[9], [0.3, 0.7])
        assert receipt.entries.values() == ["payload"]

    def test_routing_hops_logarithmic(self):
        ring = RingNetwork(1, rng=2)
        ids = ring.grow(64)
        rng = np.random.default_rng(3)
        hops = []
        for __ in range(30):
            receipt = ring.lookup(int(rng.choice(ids)), rng.random(1))
            hops.append(receipt.routing_hops)
        assert np.mean(hops) <= 12  # ~2*log2(64)

    def test_range_completeness(self):
        ring = RingNetwork(2, rng=4)
        ids = ring.grow(20)
        rng = np.random.default_rng(5)
        points = rng.random((60, 2))
        for i, p in enumerate(points):
            ring.insert(ids[i % 20], p, i)
        for __ in range(8):
            center = rng.random(2)
            radius = rng.uniform(0.05, 0.3)
            receipt = ring.range_query(ids[0], center, radius)
            got = sorted(
                v for v in receipt.entries.values() if isinstance(v, int)
            )
            want = sorted(
                i
                for i, p in enumerate(points)
                if np.linalg.norm(p - center) <= radius + 1e-12
            )
            assert got == want

    def test_sphere_replication_found_from_afar(self):
        ring = RingNetwork(2, rng=6)
        ids = ring.grow(15)
        ring.insert(ids[0], [0.5, 0.5], "sphere", radius=0.2)
        # Query near the sphere's edge, not its centre.
        receipt = ring.range_query(ids[3], np.array([0.68, 0.5]), 0.05)
        assert "sphere" in receipt.entries.values()

    def test_loads(self):
        ring = RingNetwork(1, rng=7)
        ids = ring.grow(5)
        ring.insert(ids[0], [0.5], "a")
        assert sum(ring.loads().values()) >= 1

    def test_empty_network_query_raises(self):
        ring = RingNetwork(2, rng=8)
        from repro.exceptions import EmptyNetworkError

        with pytest.raises(EmptyNetworkError):
            ring._cover(np.array([0.5, 0.5]), 0.1)
