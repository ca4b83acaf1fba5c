"""The cell directory inside ``LevelStore.hits`` / ``intersection_mask``.

The directory may only change *which rows are looked at*, never an
answer: every mask must equal the one-slab full scan (the identity
:class:`CellDirectory` over the same columns — the kernel every earlier
suite pins to the scalar oracle), and the distances it hands the scorer
must agree wherever the mask is True. Distances are compared exactly at
``d = 1`` and on the harness-shaped stores (``d <= 2``); beyond that
OpenBLAS's ``gemv`` rounds a row's dot product differently depending on
where the row sits in the matrix, so a gathered sub-matrix can differ
from the full pass in the last bits of ``k.c`` — far inside the
``_BOUNDARY_BAND`` the kernel re-resolves exactly, and pinned here to
the rounding of the expansion.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import scoring
from repro.engine import EngineConfig, create_engine
from repro.exceptions import ValidationError
from repro.geometry.intersection import INTERSECTION_SLACK
from repro.index import CellDirectory, LevelStore
from repro.index import store as store_module
from repro.net.network import Network
from repro.overlay.can import build_grid_can, bulk_publish
from repro.utils.rng import ensure_rng
from repro.wavelets import bounds, multiresolution

FLOOR = store_module._DIRECTORY_MIN_ROWS
BAND = store_module._BOUNDARY_BAND

SIZES = [0, 1, 40, FLOOR - 1, FLOOR, FLOOR + 1, 3 * FLOOR + 17]


def _full_scan(store: LevelStore) -> CellDirectory:
    """The one-slab scan over the store's physical columns."""
    n = store.n_rows
    return CellDirectory(
        *(getattr(store, name)[:n] for name in store_module._DIRECTORY_COLUMNS)
    )


def _by_row(hits) -> tuple[np.ndarray, np.ndarray]:
    """A scan's hit rows, ascending, and their distances."""
    rows = hits.positions
    if hits.directory.rows is not None:
        rows = hits.directory.rows[rows]
    order = np.argsort(rows)
    return rows[order], hits.dists[order]


def _assert_same_answer(store: LevelStore, center, radius) -> np.ndarray:
    n, d = store.n_rows, store.dimensionality
    got = store.intersection_mask(center, radius)
    want, scanned = _full_scan(store).mask(center, radius)
    assert scanned == n
    assert got.dtype == bool and got.shape == (n,)
    np.testing.assert_array_equal(got, want)
    hits = store.hits(center, radius)
    full = _full_scan(store).hits(center, radius)
    (rows, got_d), (want_rows, want_d) = _by_row(hits), _by_row(full)
    np.testing.assert_array_equal(rows, np.flatnonzero(got))
    np.testing.assert_array_equal(want_rows, np.flatnonzero(want))
    if d == 1:
        np.testing.assert_array_equal(got_d, want_d)
    else:
        center = np.asarray(center, dtype=np.float64)
        scale = 1.0 + store._key_sq[rows] + float(center @ center)
        assert np.all(
            np.abs(got_d ** 2 - want_d ** 2) <= 1e-13 * d * scale
        )
    return got


def _awkward_keys(rng, n: int, d: int) -> np.ndarray:
    """Uniform keys salted with cell faces, cube faces and outliers."""
    keys = rng.random((n, d))
    if n == 0:
        return keys
    faces = rng.random(n) < 0.2
    keys[faces] = np.round(keys[faces] * 64.0) / 64.0  # on grid lines
    corners = rng.random(n) < 0.1
    keys[corners] = rng.integers(0, 2, (int(corners.sum()), d))  # 0.0 / 1.0
    outside = rng.random(n) < 0.05
    keys[outside] = rng.uniform(-0.4, 1.4, (int(outside.sum()), d))
    return keys


def _awkward_store(rng, n: int, d: int) -> LevelStore:
    store = LevelStore(d)
    radii = rng.choice([0.0, 0.01, 0.05, 0.2], n) * rng.random(n)
    if n and rng.random() < 0.3:
        radii[rng.integers(n)] = 1.5  # one sphere covering the cube
    store.bulk_add(
        _awkward_keys(rng, n, d), radii,
        peer_ids=rng.integers(0, 50, n), items=1.0 + rng.integers(0, 9, n),
    )
    return store


def _awkward_queries(rng, store: LevelStore):
    """Centres in, on and outside the cube; radii from 0 to everything;
    and boundary grazers inside the exact re-resolution band."""
    d, n = store.dimensionality, store.n_rows
    yield rng.random(d), 0.0
    yield rng.random(d), float(rng.uniform(0.0, 0.2))
    yield rng.random(d), 3.0
    yield np.round(rng.random(d) * 64.0) / 64.0, 0.05
    yield rng.integers(0, 2, d).astype(np.float64), 0.1
    yield rng.uniform(-0.5, 1.5, d), 0.3
    if n == 0:
        return
    row = int(rng.integers(n))
    key, rho = store._keys[row].copy(), float(store._radii[row])
    yield key, 0.0  # exact-match point lookup: expansion gives ~1e-8
    direction = rng.normal(size=d)
    direction /= np.linalg.norm(direction)
    for radius in (0.0, 0.07):
        for nudge in (-1e-7, 1e-7):
            yield key + direction * (rho + radius + nudge), radius


class TestDirectoryMatchesFullScan:
    @given(
        seed=st.integers(0, 10_000),
        d=st.integers(1, 8),
        n=st.sampled_from(SIZES),
    )
    @settings(max_examples=150, deadline=None)
    def test_random_stores(self, seed, d, n):
        rng = np.random.default_rng(seed)
        store = _awkward_store(rng, n, d)
        keys, radii = store._keys[:n], store._radii[:n]
        for center, radius in _awkward_queries(rng, store):
            mask = _assert_same_answer(store, center, radius)
            exact = np.linalg.norm(keys - center, axis=1)
            margin = exact - (radii + radius + INTERSECTION_SLACK)
            decided = np.abs(margin) > 1e-9
            np.testing.assert_array_equal(
                mask[decided], (margin <= 0.0)[decided]
            )
        assert store.directory_builds == (1 if n >= FLOOR else 0)

    def test_grazers_land_inside_the_band(self, rng):
        """The ±1e-7 grazers really exercise the re-resolution path."""
        store = _awkward_store(rng, FLOOR, 3)
        center, radius = list(_awkward_queries(rng, store))[-2]  # inside
        hits = store.hits(center, radius)
        boundary = hits.directory.radii[hits.positions] + radius
        assert np.any(np.abs(hits.dists - boundary) <= BAND)

    def test_nan_centre_matches_nothing(self, rng):
        store = _awkward_store(rng, FLOOR, 2)
        with np.errstate(invalid="ignore"):
            mask = store.intersection_mask(np.array([np.nan, 0.5]), 0.1)
        assert not mask.any()

    def test_stacked_masks_equal_single_masks(self, rng):
        store = _awkward_store(rng, 2 * FLOOR, 2)
        centers = rng.random((6, 2))
        radii = rng.uniform(0.0, 0.2, 6)
        stacked = store.intersection_masks(centers, radii)
        for i in range(6):
            np.testing.assert_array_equal(
                stacked[i], store.intersection_mask(centers[i], radii[i])
            )

    def test_gathered_rows_filter_agrees(self, rng):
        store = _awkward_store(rng, FLOOR + 300, 3)
        rows = np.sort(rng.choice(store.n_rows, 500, replace=False))
        center, radius = rng.random(3), 0.25
        mask = store.intersection_mask(center, radius)
        np.testing.assert_array_equal(
            store.intersecting_rows(rows, center, radius), rows[mask[rows]]
        )


class TestRebuildPerGeneration:
    def _check(self, store, rng, builds: int) -> None:
        """Right answers, and ``builds`` rebuilds however often we ask."""
        d = store.dimensionality
        for __ in range(3):
            _assert_same_answer(store, rng.random(d), 0.12)
        assert store.directory_builds == builds

    def test_one_rebuild_per_mutation(self, rng):
        d = 2
        store = LevelStore(d, compact_min_tombstones=10**9)
        rows = store.bulk_add(
            rng.random((FLOOR + 50, d)), 0.05 * rng.random(FLOOR + 50),
            peer_ids=np.arange(FLOOR + 50) % 9,
        )
        member = store.new_membership()
        store.assign_rows([member], rows, [0, rows.size])
        assert store.directory_builds == 0  # lazy: nothing asked yet
        self._check(store, rng, 1)

        store.add(rng.random(d), 0.02, None)
        self._check(store, rng, 2)
        store.bulk_add(rng.random((30, d)), 0.01, peer_ids=np.arange(30))
        self._check(store, rng, 3)

        entry = store.entry_id_of(7)
        store.update_entry(entry, key=np.array([0.99, 0.01]))
        self._check(store, rng, 4)
        store.update_entry(entry, radius=0.8)  # raises the store's ρ_max
        self._check(store, rng, 5)
        assert store.intersection_mask(np.array([0.5, 0.5]), 0.0)[7]
        store.update_entry(entry, radius=0.8)  # no-op: same generation
        self._check(store, rng, 5)

        assert store.remove_entry(store.entry_id_of(11))
        self._check(store, rng, 6)
        assert not store.intersection_mask(store.key_of(11), 1.0)[11]
        self._check(store, rng, 6)
        for row in range(100, 140):
            store.remove_entry(store.entry_id_of(row))
        self._check(store, rng, 7)
        store.compact()
        assert store.n_tombstones == 0
        self._check(store, rng, 8)

        # Moving the columns into and out of shared memory changes no
        # row: the directory holds copies and is kept.
        store.share_columns()
        self._check(store, rng, 8)
        store.add(rng.random(d), 0.02, None)
        self._check(store, rng, 9)
        store.release_shared()
        self._check(store, rng, 9)
        assert store.health()["directory_cells"] > 1

    def test_never_below_the_floor(self, rng):
        store = LevelStore(3)
        store.bulk_add(rng.random((FLOOR - 2, 3)), 0.05, peer_ids=0)
        self._check(store, rng, 0)
        health = store.health()
        assert health["directory_cells"] == 1
        assert health["rows_scanned"] == health["mask_queries"] * store.n_rows
        store.add(rng.random(3), 0.1, None)
        self._check(store, rng, 0)
        store.share_columns()
        self._check(store, rng, 0)
        store.release_shared()
        store.add(rng.random(3), 0.1, None)  # reaches the floor
        self._check(store, rng, 1)

    def test_shrinking_below_the_floor_drops_the_directory(self, rng):
        store = LevelStore(2)
        store.bulk_add(rng.random((FLOOR, 2)), 0.05, peer_ids=0)
        self._check(store, rng, 1)
        for row in range(FLOOR // 2):
            store.remove_entry(store.entry_id_of(row))
        store.compact()
        self._check(store, rng, 2 if store.n_rows >= FLOOR else 1)
        assert store.n_rows < FLOOR
        assert store.health()["directory_cells"] == 1


class TestCentreValidation:
    @pytest.mark.parametrize("n", [0, 5, FLOOR])
    def test_wrong_length_centre_raises(self, rng, n):
        store = LevelStore(3)
        store.bulk_add(rng.random((n, 3)), 0.05)
        for bad in (np.zeros(2), np.zeros(4), np.zeros((1, 3)), 0.5):
            with pytest.raises(ValidationError, match="dimensionality"):
                store.intersection_mask(bad, 0.1)
        assert store.intersection_mask([0.5, 0.5, 0.5], 0.1).shape == (n,)


class TestHarnessShapeCountGate:
    """A count gate, not a time ratio: at the e2e harness's smoke shape
    the directory must scan well under a third of each level's rows."""

    N_PEERS, SPHERES, DIM, EPSILON, QUERIES = 2048, 2, 16, 0.25, 32

    def test_rows_scanned_ratio_and_single_build(self):
        levels = multiresolution.publication_levels(self.DIM, 3)
        assert [level.dimensionality for level in levels] == [1, 1, 2]
        rng = np.random.default_rng(1234)
        n = self.N_PEERS * self.SPHERES
        peer_ids = np.repeat(np.arange(self.N_PEERS), self.SPHERES)
        engine = create_engine(EngineConfig("serial"))
        fabric = Network(scheduler=engine.create_scheduler())
        stores, radii = [], []
        for index, level in enumerate(levels):
            can, plan = build_grid_can(
                level.dimensionality, self.N_PEERS, fabric=fabric,
                rng=ensure_rng(index), node_id_offset=(index + 1) * 1_000_000,
            )
            bulk_publish(
                can, plan, rng.random((n, level.dimensionality)),
                0.05 * rng.random(n), peer_ids=peer_ids,
                items=1.0 + np.arange(n) % 32,
            )
            engine.register_store(index, can.level_store)
            stores.append(can.level_store)
            radii.append(bounds.key_space_radius(
                self.EPSILON * bounds.radius_scale(self.DIM, level), level
            ))
        for query in rng.random((self.QUERIES, self.DIM)):
            decomposition = multiresolution.decompose(query)
            tasks = [
                (index, np.clip(bounds.to_unit_cube(
                    decomposition[level], level), 0.0, 1.0), radii[index])
                for index, level in enumerate(levels)
            ]
            answer = scoring.aggregate_scores(
                dict(zip(levels, engine.score_levels(tasks)))
            )
            # Bit-identical to scoring the full scans (what the parent
            # of this change computed): d <= 2, many rows per pass.
            full = {
                level: scoring.level_scores(
                    _full_scan(stores[index]).hits(center, radius),
                    center, radius,
                )
                for (index, center, radius), level in zip(tasks, levels)
            }
            assert answer == scoring.aggregate_scores(full)
            assert answer
        for store in stores:
            health = store.health()
            assert health["directory_builds"] == 1
            assert health["mask_queries"] == self.QUERIES
            ratio = health["rows_scanned"] / (
                health["mask_queries"] * store.n_rows
            )
            assert ratio <= 0.30, health
        engine.close()
