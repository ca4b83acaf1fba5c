"""The deferred per-level score table and the join-first aggregation.

``level_scores`` returns a :class:`LevelScoreTable` that has not run the
Eq. 1 kernel yet; ``aggregate_scores`` intersects the levels' peer arrays
and asks each table only for the common peers. Pinned here: the answers
equal the eager and the scalar ones, a partial evaluation is bit-equal to
the full one, the kernel really sees only the joined rows, and a table is
a snapshot — later store writes cannot change it.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import scoring
from repro.core.results import ClusterRecord
from repro.core.scoring import (
    LevelScoreTable,
    aggregate_scores,
    level_scores,
    level_scores_scalar,
)
from repro.engine import SerialEngine
from repro.exceptions import StaleCandidateError, ValidationError
from repro.geometry.batch import spheres_intersect_batch
from repro.index import ColumnBlock, LevelStore
from tests.rows import scalar_entries

POLICIES = ("min", "sum", "product")


def _record(peer: int, items: int) -> ClusterRecord:
    return ClusterRecord(peer_id=peer, items=items, level_name="A")


def _level(rng, n: int, d: int, peers):
    """A populated store, its full candidate set and a query sphere."""
    store = LevelStore(d)
    membership = store.new_membership()
    for __ in range(n):
        membership.add(store.add(
            rng.random(d), float(rng.uniform(0.0, 0.4)),
            _record(int(rng.choice(peers)), int(rng.integers(1, 50))),
        ))
    return store, store.candidate_set(membership.rows()), rng.random(d)


def _assert_scores_equal(got: dict, expected: dict) -> None:
    assert isinstance(got, dict)
    assert set(got) == set(expected)
    for peer, score in expected.items():
        assert got[peer] == pytest.approx(score, rel=1e-9, abs=1e-300)


class TestAggregationParity:
    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        n_levels=st.integers(1, 4),
        eps=st.floats(min_value=0.05, max_value=0.9),
        shape=st.sampled_from(["overlap", "empty-level", "disjoint"]),
    )
    def test_tables_dicts_and_scalar_agree(self, seed, n_levels, eps, shape):
        rng = np.random.default_rng(seed)
        tables, scalars = {}, {}
        for level in range(n_levels):
            # Levels draw from shifted peer ranges, so the join drops some
            # peers; "disjoint" shifts far enough that it drops them all.
            step = 20 if shape == "disjoint" else 3
            peers = np.arange(level * step, level * step + 10)
            n = 0 if (shape == "empty-level" and level == 0) else 30
            __, candidates, center = _level(rng, n, 1 + level, peers)
            tables[level] = level_scores(candidates, center, eps)
            scalars[level] = level_scores_scalar(
                scalar_entries(candidates), center, eps
            )
        # A single level is the degraded query: every peer comes out.
        mixed = {
            level: dict(table) if level % 2 else table
            for level, table in tables.items()
        }
        for policy in POLICIES:
            expected = aggregate_scores(scalars, policy=policy)
            for per_level in (
                tables,
                {level: dict(table) for level, table in tables.items()},
                mixed,
            ):
                _assert_scores_equal(
                    aggregate_scores(per_level, policy=policy), expected
                )
        if shape != "overlap" and n_levels > 1:
            assert aggregate_scores(tables) == {}
        if n_levels == 1:
            assert set(aggregate_scores(tables)) == set(tables[0])

    def test_unknown_policy_is_refused_with_no_levels_too(self):
        """A query whose every level was lost used to accept any policy."""
        for per_level in ({}, {0: {1: 2.0}}):
            with pytest.raises(ValidationError, match="aggregation policy"):
                aggregate_scores(per_level, policy="bogus")

    def test_eager_table_over_a_plain_mapping(self):
        table = LevelScoreTable.of({9: 2.0, 3: 5.0})
        assert table.peers.tolist() == [3, 9]
        assert table.totals().tolist() == [5.0, 2.0]
        assert table == {3: 5.0, 9: 2.0}
        assert LevelScoreTable.of(table) is table


class TestPartialEvaluation:
    def test_subset_totals_bit_equal_full_totals(self):
        rng = np.random.default_rng(11)
        __, candidates, center = _level(rng, 400, 4, np.arange(60))
        partial = level_scores(candidates, center, 0.5)
        full = level_scores(candidates, center, 0.5)
        assert len(full) > 10
        common = full.peers[::3]
        positions = np.searchsorted(full.peers, common)
        np.testing.assert_array_equal(
            partial.totals(common), full.totals()[positions]
        )
        # Asking for everyone by name is the full evaluation.
        np.testing.assert_array_equal(
            partial.totals(partial.peers), full.totals()
        )

    def test_full_evaluation_keeps_only_peers_and_totals(self):
        """What a cached look-up holds per table: no row copies, no
        row-to-peer positions."""
        rng = np.random.default_rng(17)
        __, candidates, center = _level(rng, 200, 3, np.arange(30))
        table = level_scores(candidates, center, 0.5)
        table.totals(table.peers[::2])
        assert table._rows is not None and table._inverse is not None
        table.totals()
        assert table._rows is None and table._inverse is None
        assert table.totals(table.peers[::2]).size == table.peers[::2].size

    def test_kernel_sees_only_rows_of_joined_peers(self, monkeypatch):
        rng = np.random.default_rng(12)
        evaluated = []
        real = scoring.intersection_fraction_batch

        def spy(radii, eps, dists, d):
            evaluated.append(len(radii))
            return real(radii, eps, dists, d)

        monkeypatch.setattr(scoring, "intersection_fraction_batch", spy)
        levels, surviving_peers = {}, {}
        for level, peers in enumerate((np.arange(0, 40), np.arange(30, 70))):
            __, candidates, center = _level(rng, 300, 3, peers)
            levels[level] = level_scores(candidates, center, 0.6)
            keys, radii, __, peer_ids, __ = candidates.columns()
            surviving_peers[level] = peer_ids[spheres_intersect_batch(
                radii, 0.6, np.linalg.norm(keys - center, axis=1)
            )]
        assert evaluated == []  # level_scores alone runs no Eq. 1
        assert len(levels[0]) == 40  # O(1), still no kernel call
        aggregated = aggregate_scores(levels)
        common = np.array(sorted(aggregated))
        assert 0 < common.size < 40
        assert evaluated == [
            int(np.isin(peer_ids, common).sum())
            for peer_ids in surviving_peers.values()
        ]
        assert sum(evaluated) < sum(
            peer_ids.size for peer_ids in surviving_peers.values()
        ) / 2


def _placed_rows(rng, eps: float, d: int, n: int):
    """``level_scores``-shaped rows with every overlap regime at ``eps``.

    Per row one of: a point sphere (``r = 0``, on either side of the
    ball), a sphere inside the query ball, the ball inside the sphere,
    and a proper lens.
    """
    regime = rng.integers(0, 4, n)
    radii = np.zeros(n)
    dists = rng.uniform(0.0, 1.5 * eps, n)
    inside_query = regime == 1
    radii[inside_query] = rng.uniform(0.0, eps / 2, inside_query.sum())
    dists[inside_query] = rng.uniform(0.0, 1.0, inside_query.sum()) * (
        eps - radii[inside_query]
    )
    inside_data = regime == 2
    radii[inside_data] = eps + rng.uniform(0.01, 0.5, inside_data.sum())
    dists[inside_data] = rng.uniform(0.0, 1.0, inside_data.sum()) * (
        radii[inside_data] - eps
    )
    lens = regime == 3
    radii[lens] = rng.uniform(0.01, 0.5, lens.sum())
    low = np.abs(radii[lens] - eps)
    dists[lens] = low + rng.uniform(0.01, 0.99, lens.sum()) * (
        radii[lens] + eps - low
    )
    peer_ids = rng.integers(0, 7, n).astype(np.int64)
    items = rng.integers(1, 50, n).astype(np.float64)
    return peer_ids, np.arange(n), dists, (radii, items, None), eps, d


class TestStackedEvaluation:
    """``evaluate_tables``: many tables, one kernel call per ``(eps, d)``,
    each total the bytes its table evaluated alone gives."""

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        specs=st.lists(
            st.tuples(
                st.sampled_from([0.0, 0.1, 0.35]),
                st.sampled_from([1, 2, 16]),
                st.integers(0, 30),
            ),
            min_size=1, max_size=8,
        ),
    )
    def test_together_equals_alone_bytewise(self, seed, specs):
        def tables():
            return [
                LevelScoreTable(None, rows=_placed_rows(
                    np.random.default_rng([seed, position]), *spec
                ))
                for position, spec in enumerate(specs)
            ]

        alone = tables()
        for table in alone:
            table.totals()
        together = tables()
        together[0].totals()  # already evaluated: skipped, not rescored
        with pytest.MonkeyPatch.context() as patch:
            calls = _counted(
                patch, scoring, "intersection_fraction_batch",
                lambda radii, eps, dists, d: (eps, d),
            )
            scoring.evaluate_tables(together)
        assert sorted(calls) == sorted(
            {(eps, d) for eps, d, __ in specs[1:]}
        )
        for got, expected in zip(together, alone, strict=True):
            assert got._rows is None and got._inverse is None
            assert got.peers.tobytes() == expected.peers.tobytes()
            assert got.totals().tobytes() == expected.totals().tobytes()

    def test_every_regime_and_empty_tables_stack(self):
        rng = np.random.default_rng(31)
        rows = [_placed_rows(rng, 0.3, 4, n) for n in (0, 400, 0, 250)]
        stacked = [LevelScoreTable(None, rows=r) for r in rows]
        scoring.evaluate_tables(stacked)
        fractions = scoring.intersection_fraction_batch(
            rows[1][3][0], 0.3, rows[1][2], 4
        )
        # The corpus reaches the floor, the clamp-free interior and 1.0.
        assert (fractions == 0.0).any() and (fractions == 1.0).any()
        assert ((fractions > 0.0) & (fractions < 1.0)).any()
        for table, r in zip(stacked, rows):
            alone = LevelScoreTable(None, rows=r)
            assert table.totals().tobytes() == alone.totals().tobytes()
        assert stacked[0].peers.size == 0 and stacked[0].totals().size == 0


class TestSnapshotSemantics:
    def test_store_writes_after_scoring_do_not_reach_the_table(self):
        rng = np.random.default_rng(13)
        store, candidates, center = _level(rng, 50, 3, np.arange(8))
        # Contiguous rows: the candidate columns are views of the store's.
        assert np.shares_memory(candidates.columns()[1], store._radii)
        table = level_scores(candidates, center, 0.7)
        expected = level_scores(candidates, center, 0.7).totals().copy()
        first, second = (store.entry_id_of(row) for row in (0, 1))
        store.update_entry(first, radius=0.9, value=_record(3, 999))
        store.remove_entry(second)
        assert candidates.is_stale()
        np.testing.assert_array_equal(table.totals(), expected)
        assert table == dict(zip(table.peers.tolist(), expected.tolist()))

    def test_stale_candidate_set_is_rejected_at_the_call(self):
        rng = np.random.default_rng(14)
        store, candidates, center = _level(rng, 20, 3, np.arange(4))
        store.remove_entry(store.entry_id_of(0))
        with pytest.raises(StaleCandidateError):
            level_scores(candidates, center, 0.7)

    def test_hits_are_taken_as_is_and_stay_a_snapshot(self):
        """A store scan's hits are filtered already: the table takes
        their positions and distances as they are, prunes nothing, reads
        radii and items from the directory's read-only copies, and store
        writes cannot reach it."""
        rng = np.random.default_rng(15)
        store, __, center = _level(rng, 60, 3, np.arange(8))
        hits = store.hits(center, 0.4)
        n = hits.positions.size
        assert 0 < n < store.n_rows
        stats: dict = {}
        table = level_scores(hits, center, 0.4, stats=stats)
        assert stats == {"candidates": n, "pruned": 0, "surviving": n}
        __, positions, dists, (radii, items, row_ids), *___ = table._rows
        assert positions is hits.positions and dists is hits.dists
        assert radii is hits.directory.radii and items is hits.directory.items
        assert row_ids is None  # under the floor: scan order is row order
        assert not np.shares_memory(radii, store._radii)
        expected = level_scores(hits, center, 0.4).totals().copy()
        store.update_entry(
            store.entry_id_of(int(hits.positions[0])), radius=0.9,
            value=_record(3, 999),
        )
        store.remove_entry(store.entry_id_of(int(hits.positions[1])))
        np.testing.assert_array_equal(table.totals(), expected)

    def test_block_with_pruned_rows_is_still_copied(self):
        rng = np.random.default_rng(16)
        store, __, center = _level(rng, 60, 3, np.arange(8))
        block = store.column_block(np.arange(store.n_rows))
        stats: dict = {}
        table = level_scores(block, center, 0.2, stats=stats)
        assert stats["pruned"] > 0
        __, positions, ___, (radii, items, row_ids), *____ = table._rows
        assert radii.shape[0] == positions.size == stats["surviving"]
        assert row_ids is None
        assert not np.shares_memory(radii, block.radii)
        assert not np.shares_memory(items, block.items)


class TestHitsTables:
    """Engine tables built from scan hits over gridded stores with six
    spheres a peer a level (the harness has two, where the order a
    peer's terms are added in cannot show). Keys, radii and centres are
    dyadic, so every distance either path computes is exact and the
    paths can differ only in that order."""

    RADII = (0.0625, 0.09375, 0.125)
    N_PEERS, PER_PEER = 700, 6

    def _stores(self, rng) -> list:
        n = self.N_PEERS * self.PER_PEER
        stores = []
        for d in (1, 2, 3):
            store = LevelStore(d)
            store.bulk_add(
                rng.integers(0, 256, (n, d)) / 256.0,
                rng.integers(32, 160, n) / 1024.0,
                peer_ids=rng.permutation(
                    np.repeat(np.arange(self.N_PEERS), self.PER_PEER)
                ),
                items=rng.integers(1, 50, n).astype(np.float64),
            )
            stores.append(store)
        return stores

    def _engine(self, stores) -> SerialEngine:
        engine = SerialEngine()
        for index, store in enumerate(stores):
            engine.register_store(index, store)
        return engine

    def _tasks(self, rng, stores) -> list:
        return [
            (index, rng.integers(0, 512, store.dimensionality) / 512.0, radius)
            for index, (store, radius) in enumerate(zip(stores, self.RADII))
        ]

    def test_engine_tables_equal_the_candidate_path(self):
        rng = np.random.default_rng(41)
        stores = self._stores(rng)
        engine = self._engine(stores)
        for __ in range(8):
            tasks = self._tasks(rng, stores)
            tables = engine.score_levels(tasks)
            assert all(table._rows[3][2] is not None for table in tables)
            # Some peer adds three or more terms at a level.
            assert max(
                np.unique(table._rows[0], return_counts=True)[1].max()
                for table in tables
            ) >= 3
            candidates = {}
            for index, center, radius in tasks:
                store = stores[index]
                rows = np.flatnonzero(store.intersection_mask(center, radius))
                candidates[index] = level_scores(
                    store.candidate_set(rows), center, radius
                )
            for policy in POLICIES:
                got = aggregate_scores(dict(enumerate(tables)), policy=policy)
                assert got and got == aggregate_scores(candidates, policy=policy)
            # ``min`` can hide a level's last bits: compare every peer.
            for index, table in enumerate(tables):
                assert dict(table) == dict(candidates[index])
        assert [store.directory_builds for store in stores] == [1, 1, 1]

    def test_store_writes_after_scoring_do_not_reach_the_tables(self):
        rng = np.random.default_rng(42)
        stores = self._stores(rng)
        engine = self._engine(stores)
        tasks = self._tasks(rng, stores)
        tables = engine.score_levels(tasks)
        expected = aggregate_scores(dict(enumerate(engine.score_levels(tasks))))
        totals = [table.totals().copy() for table in engine.score_levels(tasks)]
        assert expected
        for store in stores:
            d = store.dimensionality
            for row in range(0, 600, 7):
                store.update_entry(
                    store.entry_id_of(row), key=np.full(d, 0.5), radius=0.3,
                    value=_record(int(row), 999),
                )
            for row in range(1, store.n_rows, 3):
                store.remove_entry(store.entry_id_of(row))
            assert store.maybe_compact()
        assert aggregate_scores(dict(enumerate(tables))) == expected
        for table, before in zip(tables, totals):
            assert table.totals().tobytes() == before.tobytes()

    def test_directory_arrays_are_read_only(self):
        rng = np.random.default_rng(43)
        small = LevelStore(2)
        small.bulk_add(rng.random((40, 2)), 0.1, peer_ids=0, items=1.0)
        for store in (self._stores(rng)[1], small):
            directory = store.hits(np.full(2, 0.5), 0.2).directory
            names = ["keys", "key_sq", "radii", "live", "items", "peer_ids",
                     "offsets"]
            if directory.rows is not None:
                names.append("rows")
            for name in names:
                column = getattr(directory, name)
                with pytest.raises(ValueError, match="read-only"):
                    column[0] = column[0]
            assert not np.shares_memory(directory.radii, store._radii)
            assert store._radii.flags.writeable


def _peer_universe(kind: str, n: int, rng) -> np.ndarray:
    """``n`` distinct peer ids of the given flavour."""
    if kind == "dense":
        return np.arange(n, dtype=np.int64)
    if kind == "offset":
        return 1_000_000 + np.arange(n, dtype=np.int64)
    if kind == "minus-one":  # the store's "no peer" id takes part
        return np.arange(n, dtype=np.int64) - 1
    ids = np.unique(rng.integers(0, 2**62, size=2 * n, dtype=np.int64))
    return rng.permutation(ids)[:n]


def _block(rng, peer_ids: np.ndarray, d: int, max_radius: float):
    """A keyed ``ColumnBlock`` of random spheres, one per ``peer_ids`` row."""
    keys = rng.random((peer_ids.size, d))
    return ColumnBlock(
        radii=rng.uniform(0.0, max_radius, peer_ids.size),
        items=rng.integers(1, 50, peer_ids.size).astype(np.float64),
        peer_ids=peer_ids, keys=keys,
        key_sq=np.einsum("ij,ij->i", keys, keys),
    )


def _join_blocks(rng, dims, shape, universe):
    """Per-level ``(ColumnBlock, center)`` with 1-5 interleaved rows a peer."""
    blocks = {}
    for level, d in enumerate(dims):
        if shape == "disjoint":
            peers = universe[level::len(dims)]
        else:
            peers = universe[rng.random(universe.size) < 0.6]
        if shape == "empty-level" and level == 0:
            peers = peers[:0]
        peer_ids = rng.permutation(
            np.repeat(peers, rng.integers(1, 6, peers.size))
        )
        blocks[level] = (_block(rng, peer_ids, d, 0.4), rng.random(d))
    return blocks


class TestCrossLevelJoin:
    """``aggregate_scores`` against a plain-Python join of the fully
    evaluated levels: exact for every input form and id flavour, and the
    caller's tables come back whole."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        dims=st.lists(st.sampled_from([1, 2, 3]), min_size=1, max_size=4),
        eps=st.floats(min_value=0.05, max_value=0.9),
        shape=st.sampled_from(["overlap", "empty-level", "disjoint"]),
        ids=st.sampled_from(["dense", "offset", "sparse", "minus-one"]),
    )
    def test_every_input_form_equals_the_plain_join(
        self, seed, dims, eps, shape, ids
    ):
        rng = np.random.default_rng(seed)
        universe = _peer_universe(ids, 24, rng)
        blocks = _join_blocks(rng, dims, shape, universe)

        def fresh() -> dict:
            return {
                level: level_scores(block, center, eps)
                for level, (block, center) in blocks.items()
            }

        full = {level: dict(table) for level, table in fresh().items()}
        common = set.intersection(*(set(scores) for scores in full.values()))
        columns = {
            peer: [scores[peer] for scores in full.values()] for peer in common
        }
        if shape != "overlap" and len(dims) > 1:
            assert not common
        for policy in POLICIES:
            lazy = fresh()
            got = aggregate_scores(lazy, policy=policy)
            assert isinstance(got, dict)
            assert got == aggregate_scores(full, policy=policy)
            assert got == aggregate_scores(
                {
                    level: full[level] if level % 2 else table
                    for level, table in fresh().items()
                },
                policy=policy,
            )
            if policy == "min":
                assert got == {p: min(column) for p, column in columns.items()}
            else:
                fold = sum if policy == "sum" else np.prod
                _assert_scores_equal(
                    got, {p: float(fold(c)) for p, c in columns.items()}
                )
            # The join narrowed nothing the caller holds.
            for level, table in lazy.items():
                assert table.peers.tolist() == sorted(full[level])
                assert dict(table) == full[level]


def _counted(monkeypatch, holder, name: str, size_of) -> list:
    """Spy on ``holder.name``: one ``size_of(*args)`` entry per call."""
    calls, real = [], getattr(holder, name)

    def spy(*args, **kwargs):
        calls.append(size_of(*args))
        return real(*args, **kwargs)

    monkeypatch.setattr(holder, name, spy)
    return calls


class TestWorkCounts:
    """The gain, held by counts rather than by a wall-clock gate."""

    N_PEERS = 4096

    def _harness_levels(self, rng, peers=None) -> list:
        """``level_scores`` arguments in the scale harness's shape: every
        peer publishes two spheres a level at d = 1, 1, 2 and a level
        keeps a third of them or fewer."""
        if peers is None:
            peers = np.arange(self.N_PEERS, dtype=np.int64)
        peer_ids = np.repeat(peers, 2)
        return [
            (_block(rng, peer_ids, d, 0.05), rng.random(d), eps)
            for d, eps in ((1, 0.15), (1, 0.15), (2, 0.12))
        ]

    def _spies(self, monkeypatch):
        """Row counts handed to ``np.unique`` and to the Eq. 1 kernel."""
        return (
            _counted(monkeypatch, np, "unique", lambda ar, **__: len(ar)),
            _counted(
                monkeypatch, scoring, "intersection_fraction_batch",
                lambda radii, *__: len(radii),
            ),
        )

    def test_level_scores_neither_sorts_nor_scores(self, monkeypatch):
        sorted_rows, scored_rows = self._spies(monkeypatch)
        levels = self._harness_levels(np.random.default_rng(21))
        tables = [level_scores(*level) for level in levels]
        assert (sorted_rows, scored_rows) == ([], [])
        # Read alone, a table sorts itself once and still scores nothing.
        for __ in range(2):
            assert all(len(table) > 100 for table in tables)
        assert (len(sorted_rows), scored_rows) == (len(tables), [])

    def test_join_sorts_and_scores_only_rows_of_joined_peers(
        self, monkeypatch
    ):
        levels = self._harness_levels(np.random.default_rng(22))
        expected = aggregate_scores(
            {index: dict(level_scores(*level))
             for index, level in enumerate(levels)}
        )
        tables = [level_scores(*level) for level in levels]
        surviving = [table._rows[0] for table in tables]
        sorted_rows, scored_rows = self._spies(monkeypatch)
        assert aggregate_scores(dict(enumerate(tables))) == expected
        sorted_rows = list(sorted_rows)  # np.isin below sorts too
        common = np.array(sorted(expected))
        joined = [int(np.isin(ids, common).sum()) for ids in surviving]
        assert common.size > 0
        assert scored_rows == joined
        assert sorted(sorted_rows) == sorted(joined)
        assert sum(joined) < sum(ids.size for ids in surviving) / 4

    @pytest.mark.parametrize("flavour", ["all-eager", "sparse"])
    def test_no_count_array_when_grouped_or_sparse(self, flavour, monkeypatch):
        """Evaluated tables and ids spread over 2**40 take the sorted join
        as it was: the semi-join hands back its input and allocates
        nothing sized by the id span."""
        rng = np.random.default_rng(23)
        peers = None
        if flavour == "sparse":
            peers = np.sort(rng.choice(2**40, self.N_PEERS, replace=False))
        tables = [
            level_scores(*level) for level in self._harness_levels(rng, peers)
        ]
        rows = sum(table._rows[0].size for table in tables)
        if flavour == "all-eager":
            for table in tables:
                table.totals()
        allocated = _counted(
            monkeypatch, np, "zeros", lambda shape, **__: int(np.prod(shape))
        )
        assert scoring._semi_join(tables) is tables
        assert aggregate_scores(dict(enumerate(tables)))
        assert all(size <= rows for size in allocated)
        if flavour == "all-eager":
            assert allocated == []
