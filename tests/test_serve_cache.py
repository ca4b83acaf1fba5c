"""Unit tests for the serving tier's candidate cache."""

import numpy as np
import pytest

from repro.core.results import ClusterRecord
from repro.exceptions import ValidationError
from repro.index import LevelStore
from repro.serve import CandidateCache, candidate_key


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

    def test_rejects_a_fractional_capacity(self):
        with pytest.raises(ValidationError, match="capacity"):
            CandidateCache(2.5)  # was silently a cache of 2

    def test_rejects_a_bool_capacity(self):
        with pytest.raises(ValidationError, match="capacity"):
            CandidateCache(True)  # was silently a cache of 1

    def test_rejects_a_string_capacity(self):
        with pytest.raises(ValidationError, match="capacity"):
            CandidateCache("3")  # was a bare TypeError

    def test_accepts_a_numpy_integer_capacity(self):
        assert CandidateCache(np.int64(3)).capacity == 3

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

    def test_lru_eviction_past_capacity(self):
        store, rows = _store_with_rows(6)
        cache = CandidateCache(2)
        cs = _snapshot(store, rows)
        for i in range(4):
            cache.store(candidate_key(i, store._keys[rows[0]], 0.1), cs)
        assert len(cache) == 2
        assert cache.evictions == 2
        # The two most recent keys survive.
        assert cache.lookup(
            candidate_key(3, store._keys[rows[0]], 0.1)
        ) is not None
        assert cache.lookup(
            candidate_key(0, store._keys[rows[0]], 0.1)
        ) is None
