"""``CellDirectory.hits``: the one scan kernel, against the dense form it
replaced.

Before the scan returned hits, it scattered a full-length mask and wrote
every scanned row's centre distance into a caller's ``dists=`` array.
:func:`_dense_scan` keeps a copy of that kernel; the hit rows and their
distances must equal its mask and ``dists`` bit for bit, on gridded and
one-cell stores, with tombstones and after compaction, and the store's
scan counters must count what it scanned.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry.batch import spheres_intersect_batch
from repro.index import LevelStore
from repro.index import store as store_module
from repro.index.store import _pick

FLOOR = store_module._DIRECTORY_MIN_ROWS
BAND = store_module._BOUNDARY_BAND


def _dense_scan(directory, center, radius):
    """The dense kernel: ``(mask, dists, scanned)`` in the caller's rows.

    ``dists`` holds the distance of every scanned row and NaN elsewhere.
    """
    center = np.asarray(center, dtype=np.float64)
    radius = float(radius)
    n = directory.live.shape[0]
    out, dists = np.zeros(n, dtype=bool), np.full(n, np.nan)
    sel = directory._meeting(center, radius)
    keys = _pick(directory.keys, sel)
    scanned = keys.shape[0]
    if scanned == 0:
        return out, dists, 0
    radii = _pick(directory.radii, sel)
    dots = keys[:, 0] * center[0] if keys.shape[1] == 1 else keys @ center
    d2 = _pick(directory.key_sq, sel) - 2.0 * dots
    d2 += float(center @ center)
    np.maximum(d2, 0.0, out=d2)
    dist = np.sqrt(d2, out=d2)
    near = np.abs(dist - (radii + radius)) <= BAND
    if near.any():
        diff = keys[near] - center
        dist[near] = np.sqrt(np.einsum("ij,ij->i", diff, diff))
    hit = spheres_intersect_batch(radii, radius, dist)
    hit &= _pick(directory.live, sel)
    target = sel if directory.rows is None else _pick(directory.rows, sel)
    out[target] = hit
    dists[target] = dist
    return out, dists, scanned


def _store(rng, n: int, d: int, tombstones: str) -> LevelStore:
    """``n`` rows, some sharing keys, some point spheres; then either no
    deletions, tombstones left in place, or tombstones compacted away."""
    store = LevelStore(d)
    keys = rng.random((n, d))
    if n:
        keys[rng.random(n) < 0.1] = keys[0]
    radii = rng.choice([0.0, 0.01, 0.05], n) * rng.random(n)
    store.bulk_add(keys, radii, peer_ids=rng.integers(0, 40, n),
                   items=1.0 + rng.integers(0, 9, n))
    if tombstones != "none" and n:
        doomed = rng.choice(n, size=n // 3, replace=False)
        for row in doomed:
            store.remove_entry(store.entry_id_of(int(row)))
        if tombstones == "compacted":
            assert store.maybe_compact() == (n // 3 >= 64)
    return store


def _queries(rng, store):
    """Radius 0, ordinary balls, and centres within the boundary band."""
    d, live = store.dimensionality, store.live_rows()
    yield rng.random(d), 0.0
    yield rng.random(d), float(rng.uniform(0.0, 0.15))
    if live.size == 0:
        return
    row = int(rng.choice(live))
    key, rho = store.key_of(row).copy(), store.radius_of(row)
    yield key, 0.0
    direction = rng.normal(size=d)
    direction /= np.linalg.norm(direction)
    for radius in (0.0, 0.03):
        for nudge in (-1e-7, -1e-12, 0.0, 1e-12, 1e-7):
            yield key + direction * (rho + radius + nudge), radius


class TestHitsEqualTheDenseScan:
    @given(
        seed=st.integers(0, 10_000),
        d=st.sampled_from([1, 2, 3, 8]),
        n=st.sampled_from([0, 1, 50, FLOOR - 1, FLOOR, 2 * FLOOR + 17]),
        tombstones=st.sampled_from(["none", "kept", "compacted"]),
    )
    @settings(max_examples=60, deadline=None)
    def test_hit_rows_and_distances_bit_for_bit(self, seed, d, n, tombstones):
        rng = np.random.default_rng(seed)
        store = _store(rng, n, d, tombstones)
        banded = 0
        for center, radius in _queries(rng, store):
            queries, scanned_before = store.mask_queries, store.rows_scanned
            hits = store.hits(center, radius)
            directory = hits.directory
            assert directory is store._cell_directory()
            assert (directory.rows is None) == (store.n_rows < FLOOR)
            mask, dists, scanned = _dense_scan(directory, center, radius)
            assert hits.scanned == scanned
            assert store.mask_queries == queries + 1
            assert store.rows_scanned == scanned_before + scanned
            rows = hits.positions
            if directory.rows is not None:
                rows = directory.rows[rows]
            assert rows.dtype == np.int64 and hits.dists.dtype == np.float64
            order = np.argsort(rows)
            np.testing.assert_array_equal(rows[order], np.flatnonzero(mask))
            assert hits.dists[order].tobytes() == dists[rows[order]].tobytes()
            np.testing.assert_array_equal(directory.mask(center, radius)[0], mask)
            boundary = directory.radii[hits.positions] + radius
            banded += int(np.sum(np.abs(hits.dists - boundary) <= BAND))
        if store.n_live:
            assert banded  # the nudged centres reach the re-resolution band
