"""Unit tests for the serving caches and the query-log miner."""

import numpy as np
import pytest

from repro.core.results import ClusterRecord
from repro.exceptions import ValidationError
from repro.index import LevelStore
from repro.serve import CandidateCache, QueryLogMiner, candidate_key


def _store_with_rows(n: int, d: int = 3, seed: int = 0):
    rng = np.random.default_rng(seed)
    store = LevelStore(d)
    rows = [
        store.add(
            rng.random(d), 0.2,
            ClusterRecord(peer_id=i % 4, items=5, level_name="A"),
        )
        for i in range(n)
    ]
    return store, rows


def _snapshot(store, rows):
    return store.candidate_set(np.asarray(rows, dtype=np.int64))


class TestCandidateCache:
    def test_rejects_zero_capacity(self):
        with pytest.raises(ValidationError):
            CandidateCache(0)

    def test_lookup_accounting(self):
        store, rows = _store_with_rows(4)
        cache = CandidateCache(8)
        ck = candidate_key(0, store._keys[rows[0]], 0.5)
        assert cache.lookup(ck) is None
        cache.store(ck, _snapshot(store, rows))
        assert cache.lookup(ck) is not None
        assert cache.snapshot() == {
            "size": 1, "capacity": 8, "hits": 1, "misses": 1,
            "stale": 0, "evictions": 0,
        }

    def test_stale_entry_dropped_not_served(self):
        store, rows = _store_with_rows(4)
        cache = CandidateCache(8)
        ck = candidate_key(0, store._keys[rows[0]], 0.5)
        cache.store(ck, _snapshot(store, rows))
        store.add(  # generation bump stales the snapshot
            np.zeros(3), 0.1,
            ClusterRecord(peer_id=0, items=1, level_name="A"),
        )
        assert cache.lookup(ck) is None
        stats = cache.snapshot()
        assert stats["stale"] == 1
        assert stats["size"] == 0

    def test_peek_skips_hit_miss_accounting(self):
        store, rows = _store_with_rows(3)
        cache = CandidateCache(4)
        ck = candidate_key(0, store._keys[rows[0]], 0.5)
        assert cache.peek(ck) is None
        cache.store(ck, _snapshot(store, rows))
        assert cache.peek(ck) is not None
        stats = cache.snapshot()
        assert stats["hits"] == 0 and stats["misses"] == 0

    def test_lru_eviction_past_capacity(self):
        store, rows = _store_with_rows(6)
        cache = CandidateCache(2)
        cs = _snapshot(store, rows)
        for i in range(4):
            cache.store(candidate_key(i, store._keys[rows[0]], 0.1), cs)
        assert len(cache) == 2
        assert cache.evictions == 2
        # The two most recent keys survive.
        assert cache.peek(
            candidate_key(3, store._keys[rows[0]], 0.1)
        ) is not None
        assert cache.peek(
            candidate_key(0, store._keys[rows[0]], 0.1)
        ) is None

    def test_drop_stale_sweeps_everything_stale(self):
        store, rows = _store_with_rows(4)
        cache = CandidateCache(8)
        cs = _snapshot(store, rows)
        for i in range(3):
            cache.store(candidate_key(i, store._keys[rows[0]], 0.1), cs)
        store.add(
            np.zeros(3), 0.1,
            ClusterRecord(peer_id=0, items=1, level_name="A"),
        )
        assert cache.drop_stale() == 3
        assert len(cache) == 0


class TestQueryLogMiner:
    def test_ranks_hot_keys_by_frequency(self):
        miner = QueryLogMiner(grid=4)
        hot = np.full(3, 0.5)
        cold = np.full(3, 0.1)
        for __ in range(5):
            miner.observe("A", 0, hot, 0.2)
        miner.observe("A", 0, cold, 0.2)
        ranked = miner.hot_keys(2)
        assert ranked[0] == candidate_key(0, hot, 0.2)
        assert len(ranked) == 2
        assert miner.hot_keys(0) == []

    def test_hot_regions_decay(self):
        miner = QueryLogMiner(grid=4, decay_every=8)
        old = np.full(2, 0.9)
        for __ in range(4):
            miner.observe("D0", 0, old, 0.1)
        fresh = np.full(2, 0.1)
        for __ in range(4):  # observation 8 triggers the halving
            miner.observe("D0", 0, fresh, 0.1)
        regions = {tuple(r["cell"]): r["count"] for r in miner.hot_regions(4)}
        assert regions[(3, 3)] == 2.0  # 4 halved once
        assert regions[(0, 0)] == 2.0

    def test_key_table_is_bounded(self):
        miner = QueryLogMiner(grid=4, capacity=3)
        rng = np.random.default_rng(0)
        for __ in range(10):
            miner.observe("A", 0, rng.random(2), 0.1)
        assert miner.snapshot()["distinct_keys"] == 3

    def test_rejects_bad_knobs(self):
        with pytest.raises(ValidationError):
            QueryLogMiner(grid=0)
        with pytest.raises(ValidationError):
            QueryLogMiner(capacity=0)

    def test_decay_every_zero_is_refused_at_construction(self):
        with pytest.raises(ValidationError, match="decay_every"):
            QueryLogMiner(decay_every=0)
