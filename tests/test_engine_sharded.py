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

from repro import runtime
from repro.core.network import HyperMConfig, HyperMNetwork
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

    def test_scope_installs_and_restores(self):
        assert runtime.current.engine is None
        config = EngineConfig(engine="sharded", workers=3)
        with runtime.run_context(engine=config):
            assert runtime.current.engine is config
        assert runtime.current.engine is None

    def test_scope_restores_on_error(self):
        with pytest.raises(RuntimeError):
            with runtime.run_context(engine=EngineConfig()):
                raise RuntimeError("boom")
        assert runtime.current.engine is None

    def test_config_validation(self):
        with pytest.raises(ValidationError, match="workers"):
            EngineConfig(workers=0)
        with pytest.raises(ValidationError, match="shard_by"):
            EngineConfig(shard_by="random")

    def test_network_adopts_ambient_engine(self):
        with runtime.run_context(
            engine=EngineConfig(engine="sharded", workers=2)
        ):
            network = HyperMNetwork(8, HyperMConfig(levels_used=2))
        try:
            assert network.engine.name == "sharded"
        finally:
            network.close()


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

    def test_region_sharding_matches_level_sharding(self):
        stores = {0: _populated_store(n=150, dim=3)}
        by_level = ShardedEngine(EngineConfig(engine="sharded", workers=2))
        by_region = ShardedEngine(
            EngineConfig(engine="sharded", workers=2, shard_by="region")
        )
        try:
            self._register(by_level, stores)
            self._register(by_region, stores)
            tasks = self._tasks(stores)
            for level_mask, region_mask in zip(
                by_level.masks(tasks), by_region.masks(tasks)
            ):
                np.testing.assert_array_equal(level_mask, region_mask)
            for level_scored, region_scored in zip(
                by_level.score_levels(tasks), by_region.score_levels(tasks)
            ):
                assert set(level_scored) == set(region_scored)
                for peer, score in level_scored.items():
                    assert region_scored[peer] == pytest.approx(
                        score, abs=1e-9
                    )
        finally:
            by_level.close()
            by_region.close()

    @pytest.mark.parametrize("shard_by", ["level", "region"])
    def test_gridded_shards_match_serial_across_generations(self, shard_by):
        """Above the directory row floor the workers grid their spans;
        answers still match the inline kernel, before and after the
        store mutates (the workers rebuild on the new generation)."""
        # 2 workers: region slabs of 4 500 rows are gridded, level
        # shards grid the whole 9 000-row store.
        stores = {0: _populated_store(n=9000, dim=2, seed=11)}
        engine = ShardedEngine(
            EngineConfig(engine="sharded", workers=2, shard_by=shard_by)
        )
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

    def test_barrier_counts_epochs(self, sharded):
        assert sharded.epoch == 0
        sharded.barrier()
        sharded.barrier()
        assert sharded.epoch == 2

    def test_scheduler_exposes_engine_epoch(self, sharded):
        scheduler = sharded.create_scheduler()
        assert scheduler.epoch == 0
        scheduler.sync_shards()
        assert scheduler.epoch == sharded.epoch == 1
        # The event plane itself is the serial one.
        fired = []
        scheduler.schedule_after(0.5, lambda: fired.append(1))
        scheduler.run()
        assert fired == [1]

    def test_snapshot_shape(self, sharded):
        sharded.register_store(0, _populated_store(n=10, dim=2))
        sharded.masks([(0, np.array([0.5, 0.5]), 0.3)])
        snap = sharded.snapshot()
        assert snap["engine"] == "sharded"
        assert snap["workers"] == 2
        assert snap["shards"] == 1
        assert snap["epochs"] == 1
        assert snap["tasks_dispatched"] >= 1


class TestEndToEndParity:
    """A full Hyper-M network answers identically on both engines."""

    def _run(self, engine_config, seed=11, n_queries=4):
        config = HyperMConfig(levels_used=3, n_clusters=3)
        network = HyperMNetwork(
            16, config, rng=seed, engine_config=engine_config
        )
        try:
            data_rng = np.random.default_rng(seed + 1)
            for __ in range(5):
                network.add_peer(data_rng.random((20, 16)))
            network.publish_all()
            query_rng = np.random.default_rng(seed + 2)
            out = []
            for __ in range(n_queries):
                result = network.range_query(
                    query_rng.random(16), 0.6, max_peers=3
                )
                out.append(
                    (sorted(result.item_ids), dict(result.peer_scores))
                )
            return out
        finally:
            network.close()

    def test_sharded_range_query_matches_serial(self):
        serial = self._run(EngineConfig(engine="serial"))
        sharded = self._run(EngineConfig(engine="sharded", workers=2))
        for (serial_items, serial_scores), (shard_items, shard_scores) in zip(
            serial, sharded
        ):
            # Theorem 4.1 surface: identical retrieved item sets.
            assert serial_items == shard_items
            assert set(serial_scores) == set(shard_scores)
            for peer, score in serial_scores.items():
                assert shard_scores[peer] == pytest.approx(score, abs=1e-9)
