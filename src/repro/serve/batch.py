"""Batched index phase: one stacked mask pass per level per batch.

The sequential index phase (:func:`repro.core.queries.index_phase`) pays
one BLAS matvec and one Eq. 1 evaluation per query per level. Here the
batch's per-level look-ups the cache does not hold collapse into a
single :meth:`repro.index.LevelStore.intersection_masks` GEMM,
de-multiplexed per look-up afterwards — the amortization the columnar
store was built for — and each look-up is scored once
(:meth:`repro.serve.cache.Lookup.table`) and kept with its candidates:
its table depends on nothing but ``(store generation, level, key,
radius)``. The engine joins a request's look-ups once and memoizes the
join on them (:class:`repro.serve.cache.Joined`).

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
set equality (Theorem 4.1) and the score parity.

:class:`StoreSource` packages both look-ups — single and batched — as the
co-located *candidate source* of the query pipeline
(:mod:`repro.core.queries`): no overlay routing, so ``index_hops == 0``.
"""

from __future__ import annotations

import numpy as np

from repro.core.queries import Fetched
from repro.core.scoring import evaluate_tables
from repro.serve.cache import CandidateCache, Lookup, candidate_key


def fresh_candidates(store, key: np.ndarray, radius: float) -> Lookup:
    """One store-direct look-up (single-query mask pass)."""
    mask = store.intersection_mask(key, radius)
    return Lookup(store, key, radius, np.flatnonzero(mask))


def refresh(store, missing: dict, priors: dict) -> dict:
    """Resolve ``missing`` look-ups (``{cache key: (key, radius)}``) anew.

    One stacked mask pass over the rows stamped since the oldest prior
    (every row when one has none): each look-up keeps its prior's other
    rows and adds the changed rows that meet its ball — exactly what a
    whole-store mask finds — and scores against its prior's table, or
    takes it as it is when its rows are the prior's, none changed.
    """
    since = [
        priors[ck].candidates.generation if ck in priors else -1
        for ck in missing
    ]
    oldest = min(since)
    changed = None if oldest < 0 else np.flatnonzero(  # None: every row
        store.stamps_of(slice(0, store.n_rows)) > oldest
    )
    masks = store.intersection_masks(
        np.stack([key for key, __ in missing.values()]),
        np.asarray([radius for __, radius in missing.values()]),
        changed,
    )
    out = {}
    for mask, generation, (ck, (key, radius)) in zip(
        masks, since, missing.items(), strict=True
    ):
        rows = np.flatnonzero(mask) if changed is None else changed[mask]
        prior, same = priors.get(ck), False
        if prior is not None:
            held = prior.candidates.rows
            stamps = store.stamps_of(held)
            rows = np.sort(np.concatenate([held[stamps <= oldest], rows]))
            same = rows.size == held.size and not np.any(stamps > generation)
        out[ck] = Lookup(store, key, radius, rows, prior, same)
    return out


class StoreSource:
    """Look-ups straight from the level stores, generation-cached.

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
        ck, priors = candidate_key(index, key, radius), {}
        found = self.cache.lookup(ck, priors) if self.cache is not None else None
        if found is None:
            found = refresh(store, {ck: (key, radius)}, priors)[ck]
            if self.cache is not None:
                self.cache.store(ck, found)
        store.bump_heat(found.candidates.rows)
        return found.candidates, 0

    def fetch(self, index: int, level, key: np.ndarray, radius: float):
        """One level of a range plan (:class:`repro.core.queries.Fetched`)."""
        return Fetched(self.probe(index, level, key, radius)[0])

    def fetch_batch(self, plans: list[dict]) -> list[dict]:
        """Resolve a batch of range plans with one GEMM per level.

        ``plans`` holds one ``{level: (key, radius)}`` dict per query; the
        return value mirrors it as ``{level: Lookup}``, each look-up's
        ``table()`` evaluated, ready for
        :func:`repro.core.queries.score_peers`. Per level, the batch is
        first served from the cache (generation-checked), duplicate
        misses are deduplicated, and the surviving distinct look-ups go
        through one stacked mask pass and into the cache, in that order.
        A look-up's table is scored the first time a plan asks and
        shared, read-only, after; a level's unscored tables are scored
        together, one Eq. 1 kernel call per radius
        (:func:`repro.core.scoring.evaluate_tables`).
        """
        cache = self.cache
        out: list[dict] = [{} for __ in plans]
        for level_index, level in enumerate(self.network.levels):
            store = self.network.overlays[level].level_store
            wanted = [candidate_key(level_index, *plan[level]) for plan in plans]
            resolved: dict = {}
            missing: dict = {}  # cache key -> (key, radius), in order
            priors: dict = {}  # cache key -> its stale entry
            for ck, plan in zip(wanted, plans, strict=True):
                if ck in resolved or ck in missing:
                    continue
                cached = cache.lookup(ck, priors) if cache is not None else None
                if cached is not None:
                    resolved[ck] = cached
                else:
                    missing[ck] = plan[level]
            if missing:
                for ck, found in refresh(store, missing, priors).items():
                    resolved[ck] = found
                    if cache is not None:
                        cache.store(ck, found)
            evaluate_tables([found.table() for found in resolved.values()])
            for lookups, ck in zip(out, wanted, strict=True):
                store.bump_heat(resolved[ck].candidates.rows)
                lookups[level] = resolved[ck]
        return out
