"""The sharded engine: registry, shm lifecycle, and serial parity.

The contract under test is the one the scale harness leans on: the
sharded engine is an *execution strategy*, never a different answer.
Masks and Eq. 1 scores computed on worker processes over shared-memory
columns must match the inline serial kernels at 1e-9 (they are the same
kernels — ``repro.engine.base.store_mask`` / ``gather_block`` — so the
tests mostly guard the transport: manifests, generations, barriers).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.scoring import level_scores
from repro.engine import (
    EngineConfig,
    SerialEngine,
    ShardedEngine,
    create_engine,
    engine_names,
    gather_block,
    resolve_engine,
    store_mask,
)
from repro.exceptions import StaleCandidateError, ValidationError
from repro.index import LevelStore


def _populated_store(n=80, dim=3, seed=0):
    rng = np.random.default_rng(seed)
    store = LevelStore(dim)
    store.bulk_add(
        rng.random((n, dim)), 0.05 + 0.1 * rng.random(n),
        peer_ids=np.arange(n, dtype=np.int64) % 7,
    )
    return store


@pytest.fixture
def sharded():
    engine = ShardedEngine(EngineConfig(engine="sharded", workers=2))
    yield engine
    engine.close()


class TestRegistry:
    def test_registered_names(self):
        assert engine_names() == ["serial", "sharded"]

    def test_resolve_known(self):
        assert resolve_engine("serial") is SerialEngine
        assert resolve_engine("sharded") is ShardedEngine

    def test_resolve_unknown_lists_known(self):
        with pytest.raises(ValidationError, match="serial, sharded"):
            resolve_engine("gpu")

    def test_create_engine_defaults_to_serial(self):
        engine = create_engine()
        assert isinstance(engine, SerialEngine)
        assert not engine.parallel

    def test_config_validation(self):
        with pytest.raises(ValidationError, match="workers"):
            EngineConfig(workers=0)
        with pytest.raises(ValidationError, match="shard_by"):
            EngineConfig(shard_by="random")
        with pytest.raises(ValidationError, match="shard_by"):
            EngineConfig(shard_by="region")


class TestShardedParity:
    def _tasks(self, stores, n_queries=6, seed=3):
        rng = np.random.default_rng(seed)
        tasks = []
        for q in range(n_queries):
            key = q % len(stores)
            dim = stores[key].dimensionality
            tasks.append((key, rng.random(dim), 0.2 + 0.3 * rng.random()))
        return tasks

    def _register(self, engine, stores):
        for key, store in stores.items():
            engine.register_store(key, store)

    def test_masks_match_inline(self, sharded):
        stores = {0: _populated_store(dim=2), 1: _populated_store(dim=3, seed=5)}
        self._register(sharded, stores)
        tasks = self._tasks(stores)
        masks = sharded.masks(tasks)
        for (key, center, radius), mask in zip(tasks, masks):
            expected = store_mask(stores[key], center, radius)
            np.testing.assert_array_equal(mask, expected)

    def test_scores_match_inline_at_1e9(self, sharded):
        stores = {0: _populated_store(dim=2), 1: _populated_store(dim=3, seed=5)}
        self._register(sharded, stores)
        tasks = self._tasks(stores)
        scored = sharded.score_levels(tasks)
        for (key, center, radius), scores in zip(tasks, scored):
            store = stores[key]
            block = gather_block(store, store_mask(store, center, radius))
            expected = level_scores(block, center, radius)
            assert set(scores) == set(expected)
            for peer, score in expected.items():
                assert scores[peer] == pytest.approx(score, abs=1e-9)

    def test_gridded_shards_match_serial_across_generations(self):
        """Above the directory row floor the workers grid their shard;
        answers still match the inline kernel, before and after the
        store mutates (the workers rebuild on the new generation)."""
        stores = {0: _populated_store(n=9000, dim=2, seed=11)}
        engine = ShardedEngine(EngineConfig(engine="sharded", workers=2))
        try:
            self._register(engine, stores)
            store = stores[0]
            for round_ in range(3):
                tasks = self._tasks(stores, seed=20 + round_)
                for (key, center, radius), mask, scores in zip(
                    tasks, engine.masks(tasks), engine.score_levels(tasks)
                ):
                    expected = store_mask(store, center, radius)
                    np.testing.assert_array_equal(mask, expected)
                    block = gather_block(store, expected)
                    inline = level_scores(block, center, radius)
                    assert set(scores) == set(inline)
                    for peer, score in inline.items():
                        assert scores[peer] == pytest.approx(score, abs=1e-9)
                # Mutate between rounds: a moved key, a tombstone, a row.
                store.update_entry(
                    store.entry_id_of(3 + round_), key=np.array([0.5, 0.5])
                )
                store.remove_entry(store.entry_id_of(100 + round_))
                store.add(np.array([0.25, 0.75]), 0.1, None)
        finally:
            engine.close()

    def test_empty_store_yields_empty_results(self, sharded):
        sharded.register_store(0, LevelStore(2))
        masks = sharded.masks([(0, np.array([0.5, 0.5]), 0.3)])
        assert masks[0].size == 0
        scored = sharded.score_levels([(0, np.array([0.5, 0.5]), 0.3)])
        assert scored[0] == {}


class TestShmLifecycle:
    def test_growth_bumps_shm_epoch_and_reattaches(self, sharded):
        store = _populated_store(n=10, dim=2)
        sharded.register_store(0, store)
        center, radius = np.array([0.5, 0.5]), 0.4
        first = sharded.masks([(0, center, radius)])[0]
        epoch_before = store.shm_epoch
        # Force a reallocation: capacity growth re-creates the shm
        # blocks, so the parent must resend the manifest to workers.
        rng = np.random.default_rng(9)
        store.bulk_add(
            rng.random((200, 2)), np.full(200, 0.05),
            peer_ids=np.arange(200, dtype=np.int64) % 5,
        )
        assert store.shm_epoch > epoch_before
        second = sharded.masks([(0, center, radius)])[0]
        assert second.size == store.n_rows
        expected = store_mask(store, center, radius)
        np.testing.assert_array_equal(second, expected)
        assert first.size < second.size

    def test_stale_generation_is_rejected(self, sharded):
        # Simulate a store mutated between task enqueue and the reply
        # check: the generation observed while building the descriptor
        # differs from the one seen when the reply comes back.
        store = _populated_store(n=20, dim=2)
        sharded.register_store(0, store)
        real_generation = store.generation
        reads = []

        class MutatedMidFlight:
            def __getattr__(self, name):
                return getattr(store, name)

            @property
            def generation(self):
                reads.append(True)
                # First read: descriptor build. Later reads: the
                # post-barrier staleness check, after a "mutation".
                if len(reads) == 1:
                    return real_generation
                return real_generation + 1

        sharded._stores[0] = MutatedMidFlight()
        with pytest.raises(StaleCandidateError, match="generation"):
            sharded.masks([(0, np.array([0.5, 0.5]), 0.3)])

    def test_close_is_idempotent_and_rejects_work(self):
        engine = ShardedEngine(EngineConfig(engine="sharded", workers=2))
        engine.register_store(0, _populated_store(n=10, dim=2))
        engine.close()
        engine.close()
        with pytest.raises(ValidationError, match="closed"):
            engine.masks([(0, np.array([0.5, 0.5]), 0.3)])

    def test_failed_shard_leaves_no_reply_behind(self, sharded):
        """One worker fails, the other answers: the exchange raises after
        reading both replies, so the next exchange gets its own answer —
        and the failed batch's unread manifests are sent again."""
        stores = {
            0: _populated_store(n=8, dim=2),
            1: _populated_store(n=8),
            2: _populated_store(n=8, seed=4),  # worker 0, after shard 0
        }
        for key, store in stores.items():
            sharded.register_store(key, store)
        center = np.full(3, 0.5)  # wrong length for shard 0's 2-d keys
        with pytest.raises(ValidationError, match="shard worker failed"):
            sharded.masks([
                (0, center, 0.4), (2, center, 0.4), (1, np.zeros(3), 0.0),
            ])
        for key in (1, 2):
            expected = store_mask(stores[key], center, 0.4)
            assert np.count_nonzero(expected) > 0
            (mask,) = sharded.masks([(key, center, 0.4)])
            np.testing.assert_array_equal(mask, expected)

    def test_snapshot_shape(self, sharded):
        sharded.register_store(0, _populated_store(n=10, dim=2))
        sharded.masks([(0, np.array([0.5, 0.5]), 0.3)])
        snap = sharded.snapshot()
        assert snap["engine"] == "sharded"
        assert snap["workers"] == 2
        assert snap["shards"] == 1
        assert snap["epochs"] == 1
        assert snap["tasks_dispatched"] >= 1
