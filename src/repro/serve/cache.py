"""Generation-keyed caches for the serving tier.

:class:`CandidateCache` memoizes hot per-level look-ups keyed on
``(level, query key bytes, radius)``. An entry is a :class:`Lookup`: the
:class:`repro.index.CandidateSet` snapshot the mask pass found and, from
the first time a range plan asks, its Eq. 1 table evaluated for every
peer (``peers`` + ``totals``, and each scored row's distance and term
for the next refresh). Both are pure functions of the key plus the
store generation, and staleness is *exact*, not
heuristic: every snapshot carries the store generation it was taken at,
every publish / delta / rebalance / compaction bumps that level's
generation, and :meth:`CandidateCache.lookup` drops an entry the
moment its generation disagrees with its store — so a mutation in one
level's store invalidates exactly that level's entries and nothing
else, and a stale entry is *never* served (it is refreshed, never
raised as a :class:`repro.exceptions.StaleCandidateError`). Refreshing
patches it: the dropped entry is the new one's *prior*, and only the
rows the store stamped since are re-resolved and re-scored
(:func:`repro.serve.batch.refresh`).

A look-up also anchors the memo of the range request whose last level
it resolves (:class:`Joined`): that request's join, ranking and peer
scans. It lives and dies with its cache entry, so the cache's bound is
the memo's bound too.

The cache is a bounded LRU map; eviction never affects correctness, only
hit rate. (Query translations are memoized once, process-wide, by
:func:`repro.core.queries.level_plan`.)
"""

from __future__ import annotations

import weakref
from collections import OrderedDict

import numpy as np

from repro.core.scoring import LevelScoreTable, level_scores
from repro.utils.validation import check_count

#: Cache key for one per-level candidate lookup:
#: ``(level position, query key bytes, key-space radius)``.
CandidateKey = tuple


def candidate_key(level_index: int, key: np.ndarray, radius: float) -> CandidateKey:
    """Build the canonical cache key for one per-level range lookup."""
    return (int(level_index), key.tobytes(), float(radius))


class Lookup:
    """One per-level look-up, resolved: what a cache entry holds.

    ``candidates`` is the generation-tagged snapshot of the store rows
    whose spheres meet the query ball. :meth:`table` scores them once —
    k-NN discovery probes only read ``candidates`` and never pay for it.
    """

    __slots__ = (
        "candidates", "joined", "_key", "_radius", "_table", "_prior",
        "__weakref__",
    )

    def __init__(self, store, key: np.ndarray, radius: float,
                 rows: np.ndarray, prior: "Lookup | None" = None,
                 same: bool = False):
        self.candidates = store.candidate_set(rows)
        #: The last range request anchored here (its last level's look-up),
        #: or the stale ``prior``'s: a re-join inherits its scan hits.
        self.joined: Joined | None = None if prior is None else prior.joined
        self._key = key
        self._radius = radius
        # The ``same`` rows as ``prior``, none changed: its table is ours.
        table = None if prior is None else prior._table
        self._table: LevelScoreTable | None = table if same else None
        self._prior = None if same else table

    def is_stale(self) -> bool:
        """True once the store has mutated since the snapshot."""
        return self.candidates.is_stale()

    def table(self) -> LevelScoreTable:
        """The look-up's Eq. 1 table, built once.

        ``StoreSource.fetch_batch`` evaluates it for every peer, together
        with its level's other new tables. Full rather than join-subset
        evaluation because the table outlives the request: whichever
        peers a later request's other levels join to, their totals are a
        take from this one, bit-equal to the subset evaluation
        (:meth:`LevelScoreTable.totals`); a refreshed look-up's carries
        its prior's unchanged terms over. Build it while the candidates
        are fresh (``StaleCandidateError``).
        """
        if self._table is None:
            self._table = level_scores(
                self.candidates, self._key, self._radius, prior=self._prior
            )
            self._prior = None
            self.candidates.release()  # the table keeps what it reads
        return self._table


class Joined:
    """One range request's join, ranking and peer scans, memoized.

    ``scores`` (the joined ``{peer: score}``; results get copies) and
    ``ranked`` (its ``rank_peers`` order) are a pure function of the
    request's per-level tables and its aggregation policy. The memo is
    held by the last level's look-up and refers to the tables by weak
    reference: it dies with its holder, and stops matching once any
    look-up is evicted or re-scored, since that makes a new table. A
    look-up refreshed with its rows unchanged keeps its table, so the
    memo holds across it. It keeps no table alive.

    :meth:`hits_of` holds the peer scans of one ``(query bytes,
    epsilon)`` column: ``{peer: (items_version, hits)}``, each exact
    while that peer's ``items_version`` holds.
    """

    __slots__ = ("_tables", "_policy", "scores", "ranked", "_column", "_hits")

    def __init__(self, lookups, policy: str, scores: dict, ranked: list,
                 prior: "Joined | None" = None):
        self._tables = [weakref.ref(found.table()) for found in lookups]
        self._policy = policy
        self.scores = scores
        self.ranked = ranked
        # Scan hits hang on peer data, not on the index: a re-join keeps
        # the memo it replaces.
        self._column, self._hits = (
            (None, {}) if prior is None else (prior._column, prior._hits)
        )

    def matches(self, lookups, policy: str) -> bool:
        """True when ``lookups`` hold exactly the tables joined, by identity.

        Every request anchored on one look-up has as many levels, since
        a cache key names its level.
        """
        return policy == self._policy and all(
            ref() is found.table()
            for ref, found in zip(self._tables, lookups, strict=True)
        )

    def hits_of(self, column: tuple) -> dict:
        """The scan memo of ``column``; a new column replaces the old one."""
        if column != self._column:
            self._column, self._hits = column, {}
        return self._hits


class CandidateCache:
    """Bounded LRU of generation-tagged :class:`Lookup` entries."""

    __slots__ = ("_capacity", "_data", "hits", "misses", "stale", "evictions")

    def __init__(self, capacity: int):
        self._capacity = check_count(capacity, "capacity")
        self._data: OrderedDict[CandidateKey, Lookup] = OrderedDict()
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

    def lookup(self, key: CandidateKey, priors: dict | None = None):
        """Return a *fresh* cached entry or None, with hit/miss accounting.

        An entry whose store has mutated since the snapshot is
        dropped here — the generation check is what turns "cache" from a
        staleness hazard into exact invalidation — and handed to
        ``priors[key]`` when given, for the caller to refresh.
        """
        cached = self._data.get(key)
        if cached is None:
            self.misses += 1
            return None
        if cached.is_stale():
            del self._data[key]
            self.stale += 1
            self.misses += 1
            if priors is not None:
                priors[key] = cached
            return None
        self._data.move_to_end(key)
        self.hits += 1
        return cached

    def store(self, key: CandidateKey, entry: Lookup) -> None:
        """Insert (or refresh) one entry, evicting LRU entries past cap."""
        self._data[key] = entry
        self._data.move_to_end(key)
        while len(self._data) > self._capacity:
            self._data.popitem(last=False)
            self.evictions += 1

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
