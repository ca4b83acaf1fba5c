"""The batched index-phase plane: stacked masks, heat, set equality.

Pins the two facts the serving tier rests on:

* :meth:`LevelStore.intersection_masks` is row-for-row identical to the
  scalar :meth:`LevelStore.intersection_mask` (the GEMM's float drift is
  absorbed by the shared boundary band), tombstones included.
* :meth:`repro.serve.batch.StoreSource.fetch_batch` resolves exactly the
  candidate sets the sequential overlay walk yields (the replication
  invariant: live rows under the mask == the visited zones' union),
  hands back their Eq. 1 tables, and every request bumps candidate heat
  — cached or freshly computed.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.network import HyperMConfig
from repro.core.results import ClusterRecord
from repro.evaluation.workloads import build_markov_network, sample_queries
from repro.exceptions import ValidationError
from repro.index import LevelStore
from repro.core.queries import level_plan
from repro.serve.batch import StoreSource, fresh_candidates
from repro.serve.cache import CandidateCache, candidate_key
from repro.wavelets.bounds import key_space_radius, radius_scale


def _record(peer: int) -> ClusterRecord:
    return ClusterRecord(peer_id=peer, items=10, level_name="A")


def _populate(store: LevelStore, n: int, d: int, rng):
    keys = rng.random((n, d))
    radii = rng.uniform(0.0, 0.5, n)
    return [
        store.add(keys[i], float(radii[i]), _record(int(i % 5)))
        for i in range(n)
    ]


class TestIntersectionMasks:
    @given(
        n=st.integers(1, 40),
        batch=st.integers(1, 8),
        d=st.integers(1, 6),
        seed=st.integers(0, 1000),
    )
    def test_matches_scalar_mask_per_row(self, n, batch, d, seed):
        rng = np.random.default_rng(seed)
        store = LevelStore(d)
        _populate(store, n, d, rng)
        centers = rng.random((batch, d))
        radii = rng.uniform(0.0, 0.8, batch)
        masks = store.intersection_masks(centers, radii)
        assert masks.shape == (batch, len(store))
        for i in range(batch):
            expected = store.intersection_mask(centers[i], float(radii[i]))
            assert np.array_equal(masks[i], expected)

    def test_skips_tombstoned_rows(self, rng):
        store = LevelStore(3)
        rows = _populate(store, 12, 3, rng)
        membership = store.new_membership()
        for row in rows[:4]:
            membership.add(row)
        for row in rows[:4]:
            membership.discard(row)  # tombstones rows 0..3
        centers = np.tile(store._keys[rows[0]], (2, 1))
        masks = store.intersection_masks(centers, np.array([10.0, 10.0]))
        assert not masks[:, rows[:4]].any()
        live = [r for r in rows[4:]]
        assert masks[:, live].all()  # radius 10 covers the unit cube

    def test_empty_store_yields_empty_masks(self):
        store = LevelStore(4)
        masks = store.intersection_masks(np.zeros((3, 4)), np.ones(3))
        assert masks.shape == (3, 0)

    def test_shape_validation(self, rng):
        store = LevelStore(3)
        _populate(store, 4, 3, rng)
        with pytest.raises(ValidationError):
            store.intersection_masks(np.zeros((2, 5)), np.ones(2))
        with pytest.raises(ValidationError):
            store.intersection_masks(np.zeros((2, 3)), np.ones(3))

    def test_boundary_band_matches_scalar_resolution(self, rng):
        # Construct a pair landing inside the exact-resolution band:
        # distance == sum of radii up to float drift.
        store = LevelStore(2)
        store.add(np.array([0.2, 0.2]), 0.1, _record(0))
        center = np.array([[0.2 + 0.1 + 0.05, 0.2]])
        masks = store.intersection_masks(center, np.array([0.05]))
        expected = store.intersection_mask(center[0], 0.05)
        assert np.array_equal(masks[0], expected)


class TestBumpHeat:
    def test_bumps_without_generation_change(self, rng):
        store = LevelStore(3)
        rows = _populate(store, 6, 3, rng)
        generation = store.generation
        store.bump_heat(np.asarray(rows[:3]))
        store.bump_heat(np.asarray(rows[:1]))
        assert store.generation == generation
        assert store.heat_of(np.asarray(rows[:1]))[0] == 2
        assert store.heat_of(np.asarray(rows[1:3])).tolist() == [1, 1]
        assert store.heat_of(np.asarray(rows[3:])).tolist() == [0, 0, 0]

    def test_empty_rows_are_a_no_op(self, rng):
        store = LevelStore(2)
        _populate(store, 3, 2, rng)
        store.bump_heat(np.empty(0, dtype=np.int64))
        assert store.heat_of(np.arange(3)).tolist() == [0, 0, 0]


@pytest.fixture(scope="module")
def served_workload():
    workload, __ = build_markov_network(
        n_peers=8,
        items_per_peer=40,
        dimensionality=16,
        config=HyperMConfig(levels_used=3, n_clusters=4),
        rng=11,
        publish=True,
    )
    return workload


def _plans(network, queries, epsilon):
    return [
        level_plan(network.dimensionality, network.levels, query, epsilon)
        for query in queries
    ]


def _assert_same_table(table, expected):
    """Same peers, bit-equal Eq. 1 totals."""
    assert np.array_equal(table.peers, expected.peers)
    assert np.array_equal(table.totals(), expected.totals())


class TestBatchedCandidates:
    def test_level_radii_matches_theorem_31_scaling(self, served_workload):
        network = served_workload.network
        d = network.dimensionality
        plan = level_plan(d, network.levels, served_workload.data[0], 0.3)
        assert list(plan) == list(network.levels)
        for level, (__, radius) in plan.items():
            expected = key_space_radius(0.3 * radius_scale(d, level), level)
            assert radius == expected
        # k-NN plans carry keys only: the driver discovers its own radii.
        keys_only = level_plan(d, network.levels, served_workload.data[0])
        for level, (key, radius) in keys_only.items():
            assert radius is None
            assert np.array_equal(key, plan[level][0])

    def test_equals_fresh_candidates_per_plan(self, served_workload):
        network = served_workload.network
        queries = sample_queries(
            served_workload.data, 6, rng=np.random.default_rng(2)
        )
        plans = _plans(network, queries, 0.3)
        cache = CandidateCache(64)
        batched = StoreSource(network, cache).fetch_batch(plans)
        for plan, lookups in zip(plans, batched):
            for index, (level, (key, radius)) in enumerate(plan.items()):
                store = network.overlays[level].level_store
                expected = fresh_candidates(store, key, radius)
                held = cache.lookup(candidate_key(index, key, radius))
                assert np.array_equal(
                    held.candidates.rows, expected.candidates.rows
                )
                assert (
                    held.candidates.generation
                    == expected.candidates.generation
                )
                # The request got the cached entry itself.
                assert lookups[level] is held
                _assert_same_table(held.table(), expected.table())

    def test_cache_dedupes_within_and_across_batches(self, served_workload):
        network = served_workload.network
        queries = sample_queries(
            served_workload.data, 3, rng=np.random.default_rng(3)
        )
        cache = CandidateCache(64)
        # Same query twice in one batch: duplicates dedupe *before* the
        # cache, so the pass costs one miss per level and no hits.
        plans = _plans(network, [queries[0], queries[0]], 0.3)
        StoreSource(network, cache).fetch_batch(plans)
        stats = cache.snapshot()
        n_levels = len(network.levels)
        assert stats["misses"] == n_levels
        assert stats["hits"] == 0
        # Same batch again: one deduped cache hit per level, no misses.
        StoreSource(network, cache).fetch_batch(plans)
        stats = cache.snapshot()
        assert stats["misses"] == n_levels
        assert stats["hits"] == n_levels

    def test_every_request_bumps_heat_even_when_cached(self, served_workload):
        network = served_workload.network
        queries = sample_queries(
            served_workload.data, 1, rng=np.random.default_rng(4)
        )
        plans = _plans(network, [queries[0], queries[0]], 0.3)
        level = network.levels[0]
        store = network.overlays[level].level_store
        before = store._heat.copy()
        StoreSource(network, CandidateCache(64)).fetch_batch(plans)
        rows = fresh_candidates(store, *plans[0][level]).candidates.rows
        delta = store._heat - before
        if len(rows):
            assert (delta[rows] == 2).all()  # both requests counted

    def test_works_without_a_cache(self, served_workload):
        network = served_workload.network
        queries = sample_queries(
            served_workload.data, 2, rng=np.random.default_rng(5)
        )
        plans = _plans(network, queries, 0.2)
        batched = StoreSource(network).fetch_batch(plans)
        assert len(batched) == 2
        for plan, lookups in zip(plans, batched):
            for level, (key, radius) in plan.items():
                store = network.overlays[level].level_store
                expected = fresh_candidates(store, key, radius)
                _assert_same_table(lookups[level].table(), expected.table())
