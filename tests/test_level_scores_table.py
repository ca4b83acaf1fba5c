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
from repro.exceptions import StaleCandidateError
from repro.geometry.batch import spheres_intersect_batch
from repro.index import LevelStore
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

    def test_mask_pass_block_is_taken_as_is_and_stays_a_snapshot(self):
        """A block gathered from a mask pass is copies already: with
        nothing pruned the table keeps them (no second set of copies),
        the accounting is unchanged, and store writes still cannot
        reach it."""
        rng = np.random.default_rng(15)
        store, __, center = _level(rng, 60, 3, np.arange(8))
        dists = np.empty(store.n_rows)
        mask = store.intersection_mask(center, 0.4, dists=dists)
        assert 0 < mask.sum() < store.n_rows
        block = store.column_block(np.nonzero(mask)[0], dists=dists)
        stats: dict = {}
        table = level_scores(block, center, 0.4, stats=stats)
        assert stats == {
            "candidates": len(block), "pruned": 0, "surviving": len(block),
        }
        __, radii, table_dists, items, *___ = table._rows
        assert radii is block.radii
        assert table_dists is block.dists
        assert items is block.items
        assert not np.shares_memory(radii, store._radii)
        expected = table.totals().copy()
        store.update_entry(
            store.entry_id_of(int(np.nonzero(mask)[0][0])), radius=0.9
        )
        np.testing.assert_array_equal(
            level_scores(block, center, 0.4).totals(), expected
        )

    def test_block_with_pruned_rows_is_still_copied(self):
        rng = np.random.default_rng(16)
        store, __, center = _level(rng, 60, 3, np.arange(8))
        dists = np.empty(store.n_rows)
        store.intersection_mask(center, 3.0, dists=dists)  # every row
        block = store.column_block(np.arange(store.n_rows), dists=dists)
        stats: dict = {}
        table = level_scores(block, center, 0.2, stats=stats)
        assert stats["pruned"] > 0
        assert table._rows[1].shape[0] == stats["surviving"]
        assert table._rows[1] is not block.radii
