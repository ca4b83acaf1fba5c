"""Generation-keyed caches for the serving tier.

:class:`CandidateCache` memoizes hot :class:`repro.index.CandidateSet`
snapshots keyed on ``(level, query key bytes, radius)``. Staleness is
*exact*, not heuristic: every snapshot carries the store generation it
was taken at, every publish / delta / rebalance / compaction bumps that
level's generation, and :meth:`CandidateCache.lookup` discards a cached
set the moment its generation disagrees with its store — so a mutation
in one level's store invalidates exactly that level's cached sets and
nothing else, and a stale set is *never* served (it is re-computed,
never raised as a :class:`repro.exceptions.StaleCandidateError`).

The cache is a bounded LRU map; eviction never affects correctness, only
hit rate. (Query translations are memoized once, process-wide, by
:func:`repro.core.queries.level_plan`.)
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

from repro.exceptions import ValidationError
from repro.index import CandidateSet

#: Cache key for one per-level candidate lookup:
#: ``(level position, query key bytes, key-space radius)``.
CandidateKey = tuple


def candidate_key(level_index: int, key: np.ndarray, radius: float) -> CandidateKey:
    """Build the canonical cache key for one per-level range lookup."""
    return (int(level_index), key.tobytes(), float(radius))


class CandidateCache:
    """Bounded LRU of generation-tagged :class:`CandidateSet` snapshots."""

    __slots__ = ("_capacity", "_data", "hits", "misses", "stale", "evictions")

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValidationError(f"capacity must be >= 1, got {capacity}")
        self._capacity = int(capacity)
        self._data: OrderedDict[CandidateKey, CandidateSet] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.stale = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._data)

    @property
    def capacity(self) -> int:
        """Maximum cached entries."""
        return self._capacity

    def lookup(self, key: CandidateKey) -> CandidateSet | None:
        """Return a *fresh* cached set or None, with hit/miss accounting.

        A cached set whose store has mutated since the snapshot is
        dropped here — the generation check is what turns "cache" from a
        staleness hazard into exact invalidation.
        """
        cached = self._data.get(key)
        if cached is None:
            self.misses += 1
            return None
        if cached.is_stale():
            del self._data[key]
            self.stale += 1
            self.misses += 1
            return None
        self._data.move_to_end(key)
        self.hits += 1
        return cached

    def peek(self, key: CandidateKey) -> CandidateSet | None:
        """Like :meth:`lookup` but without hit/miss accounting.

        The pre-warmer uses this to decide what needs recomputing; a
        peek must not inflate the serving hit rate.
        """
        cached = self._data.get(key)
        if cached is None:
            return None
        if cached.is_stale():
            del self._data[key]
            self.stale += 1
            return None
        return cached

    def store(self, key: CandidateKey, candidates: CandidateSet) -> None:
        """Insert (or refresh) one snapshot, evicting LRU entries past cap."""
        self._data[key] = candidates
        self._data.move_to_end(key)
        while len(self._data) > self._capacity:
            self._data.popitem(last=False)
            self.evictions += 1

    def drop_stale(self) -> int:
        """Evict every stale entry now; returns how many were dropped."""
        doomed = [k for k, cs in self._data.items() if cs.is_stale()]
        for key in doomed:
            del self._data[key]
        self.stale += len(doomed)
        return len(doomed)

    def snapshot(self) -> dict:
        """Counter snapshot (JSON-safe) for reports and tests."""
        return {
            "size": len(self._data),
            "capacity": self._capacity,
            "hits": self.hits,
            "misses": self.misses,
            "stale": self.stale,
            "evictions": self.evictions,
        }
