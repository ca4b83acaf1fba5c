"""Direct tests for the Z-order (Morton) helpers and the Morton node."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.overlay.morton import (
    MortonNode,
    bits_per_dim,
    covering_intervals,
    morton_key,
)


class TestBitsPerDim:
    def test_one_dim_gets_max(self):
        assert bits_per_dim(1) == 16

    def test_high_dim_floors_at_three(self):
        assert bits_per_dim(64) == 3
        assert bits_per_dim(512) == 3

    def test_total_bits_bounded(self):
        for dim in (1, 2, 4, 8):
            assert dim * bits_per_dim(dim) <= 32


class TestMortonKey:
    @given(
        x=st.floats(min_value=0.0, max_value=1.0),
        y=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_in_unit_interval(self, x, y):
        key = morton_key(np.array([x, y]), 8)
        assert 0.0 <= key < 1.0

    def test_monotone_in_one_dim(self):
        keys = [morton_key(np.array([v]), 10) for v in np.linspace(0, 1, 50)]
        assert keys == sorted(keys)

    def test_first_dim_most_significant(self):
        low = morton_key(np.array([0.1, 0.9]), 8)
        high = morton_key(np.array([0.9, 0.1]), 8)
        assert high > low

    def test_in_unit_interval_three_dims(self, rng):
        for __ in range(50):
            assert 0.0 <= morton_key(rng.random(3), 8) < 1.0

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
    def test_small_box_few_intervals(self):
        intervals = covering_intervals(
            np.array([0.4, 0.4]), np.array([0.45, 0.45]), 8
        )
        assert 1 <= len(intervals) <= 64

    def test_total_measure_at_least_box(self):
        lows = np.array([0.2, 0.3])
        highs = np.array([0.5, 0.6])
        intervals = covering_intervals(lows, highs, 8)
        measure = sum(hi - lo for lo, hi in intervals)
        box_volume = float(np.prod(highs - lows))
        assert measure >= box_volume - 1e-9  # a cover, never an undercount

    def test_degenerate_point_box(self):
        p = np.array([0.5, 0.5])
        intervals = covering_intervals(p, p, 8)
        key = morton_key(p, 8)
        assert any(lo <= key < hi + 1e-12 for lo, hi in intervals)

    @given(seed=st.integers(0, 300))
    @settings(max_examples=15)
    def test_max_cells_budget_respected(self, seed):
        rng = np.random.default_rng(seed)
        lows = rng.random(2) * 0.6
        highs = np.minimum(lows + rng.random(2) * 0.4, 1.0)
        intervals = covering_intervals(lows, highs, 8, max_cells=16)
        # Merged intervals never exceed the cell budget.
        assert len(intervals) <= 16 * 4

    @given(seed=st.integers(0, 500))
    @settings(max_examples=20)
    def test_box_points_are_covered(self, seed):
        rng = np.random.default_rng(seed)
        dim = int(rng.integers(1, 4))
        lows = rng.random(dim) * 0.5
        highs = np.minimum(lows + rng.random(dim) * 0.4, 1.0)
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


class TestMortonNode:
    def test_absorb_dedupes_shared_rows(self):
        from repro.index import LevelStore

        store = LevelStore(1)
        node = MortonNode(1)
        node.attach_store(store)
        row = store.add(np.array([0.5]), 0.0, "x")
        node.add_row(row)
        assert node.absorb_rows([row, row]) == 0  # already held: no dupes
        assert node.load == 1

    def test_replicated_row_held_once_per_node(self):
        from repro.index import LevelStore

        store = LevelStore(1)
        a, b = MortonNode(1), MortonNode(2)
        a.attach_store(store)
        b.attach_store(store)
        row = store.add(np.array([0.5]), 0.1, "x")
        a.add_row(row)
        b.add_row(row)
        assert a.load == b.load == 1
        assert store.n_live == 1  # one row, two memberships — no copies
        (row_a,), (row_b,) = a.membership.rows(), b.membership.rows()
        assert store.entry_id_of(row_a) == store.entry_id_of(row_b)

