"""Batched index phase: one stacked mask pass per level per batch.

The sequential index phase (:func:`repro.core.queries.index_phase`) pays
one BLAS matvec per query per level. Here a whole batch's per-level
lookups collapse into a single :meth:`repro.index.LevelStore.
intersection_masks` GEMM, de-multiplexed per query afterwards — the
amortization the columnar store was built for.

Why store-direct candidates equal the overlay walk's: an entry is
replicated into every zone its sphere overlaps, and a range query visits
every zone the query ball overlaps, so each store row passing the
intersection mask is held by at least one visited node — the union the
overlays return *is* the set of live rows under the mask. The batched
plane therefore computes that set directly, and the GEMM's ~1e-12
rounding difference versus the per-query matvec is absorbed by the
store's boundary band (near-boundary pairs re-resolve exactly in both
paths), so masks — hence candidate rows, hence Eq. 1 scores — are
bit-identical to the sequential path. The property suite pins both the
set equality (Theorem 4.1) and the 1e-9 score parity.

:class:`StoreSource` packages both look-ups — single and batched — as the
co-located *candidate source* of the query pipeline
(:mod:`repro.core.queries`): no overlay routing, so ``index_hops == 0``.
"""

from __future__ import annotations

import numpy as np

from repro.core.queries import Fetched
from repro.index import CandidateSet
from repro.serve.cache import CandidateCache, candidate_key


def fresh_candidates(store, key: np.ndarray, radius: float) -> CandidateSet:
    """One store-direct candidate set (single-query mask pass)."""
    mask = store.intersection_mask(key, radius)
    return store.candidate_set(np.flatnonzero(mask))


class StoreSource:
    """Candidates straight from the level stores, generation-cached.

    The serving tier's candidate source: every look-up is a store-wide
    mask pass (or a fresh ``cache`` hit) on the co-located index, charges
    no hops and cannot be lost. Every look-up bumps its candidates' heat
    — cached or not — so the adaptation controller's demand signal
    counts served queries, not mask computations.
    """

    def __init__(self, network, cache: CandidateCache | None = None):
        self.network = network
        self.cache = cache

    def probe(self, index: int, level, key: np.ndarray, radius: float):
        """One cached single-query look-up: ``(candidates, 0 hops)``."""
        store = self.network.overlays[level].level_store
        ck = candidate_key(index, key, radius)
        candidates = self.cache.lookup(ck) if self.cache is not None else None
        if candidates is None:
            candidates = fresh_candidates(store, key, radius)
            if self.cache is not None:
                self.cache.store(ck, candidates)
        store.bump_heat(candidates.rows)
        return candidates, 0

    def fetch(self, index: int, level, key: np.ndarray, radius: float):
        """One level of a range plan (:class:`repro.core.queries.Fetched`)."""
        return Fetched(self.probe(index, level, key, radius)[0])

    def fetch_batch(self, plans: list[dict]) -> list[dict]:
        """Resolve a batch of range plans with one GEMM per level.

        ``plans`` holds one ``{level: (key, radius)}`` dict per query; the
        return value mirrors it as ``{level: CandidateSet}``. Per level,
        the batch is first served from the cache (generation-checked),
        duplicate misses are deduplicated, and the surviving distinct
        lookups go through one stacked
        :meth:`~repro.index.LevelStore.intersection_masks` pass.
        """
        cache = self.cache
        out: list[dict] = [{} for __ in plans]
        for level_index, level in enumerate(self.network.levels):
            store = self.network.overlays[level].level_store
            wanted: list = []  # (plan position, cache key)
            resolved: dict = {}
            missing: dict = {}  # cache key -> (key, radius), in order
            for position, plan in enumerate(plans):
                key, radius = plan[level]
                ck = candidate_key(level_index, key, radius)
                wanted.append((position, ck))
                if ck in resolved or ck in missing:
                    continue
                cached = cache.lookup(ck) if cache is not None else None
                if cached is not None:
                    resolved[ck] = cached
                else:
                    missing[ck] = (key, radius)
            if missing:
                centers = np.stack([key for key, __ in missing.values()])
                radii = np.asarray(
                    [radius for __, radius in missing.values()],
                    dtype=np.float64,
                )
                masks = store.intersection_masks(centers, radii)
                for row, ck in enumerate(missing):
                    candidates = store.candidate_set(
                        np.flatnonzero(masks[row])
                    )
                    resolved[ck] = candidates
                    if cache is not None:
                        cache.store(ck, candidates)
            for position, ck in wanted:
                candidates = resolved[ck]
                store.bump_heat(candidates.rows)
                out[position][level] = candidates
        return out
