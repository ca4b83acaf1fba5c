"""Unit and property tests for the columnar level store.

Covers the store engine itself (columns, entry ids, refcounted
memberships, tombstones, compaction, generations), the ``CandidateSet``
staleness contract, and the property-based parity pin: store-backed
filtering and scoring must match the scalar ``StoredEntry.intersects`` /
``level_scores_scalar`` oracle to 1e-9.
"""

import json
from collections.abc import Mapping

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.results import ClusterRecord
from repro.core.scoring import level_scores, level_scores_scalar
from repro.core.serialization import (
    level_store_from_dict,
    level_store_to_dict,
    load_level_store,
    save_level_store,
)
from repro.exceptions import StaleCandidateError, ValidationError
from repro.index import CandidateSet, LevelStore
from repro.overlay.base import StoredEntry


def _record(peer: int, items: int = 10) -> ClusterRecord:
    return ClusterRecord(peer_id=peer, items=items, level_name="A")


def _populate(store: LevelStore, n: int, d: int, rng, n_peers: int = 8):
    """Add ``n`` random spheres; returns their rows."""
    keys = rng.random((n, d))
    radii = rng.uniform(0.0, 0.5, n)
    peers = rng.integers(0, n_peers, n)
    return [
        store.add(keys[i], float(radii[i]), _record(int(peers[i])))
        for i in range(n)
    ]


class TestLevelStoreBasics:
    def test_add_assigns_monotonic_entry_ids(self, rng):
        store = LevelStore(3)
        rows = _populate(store, 5, 3, rng)
        ids = [store.entry_id_of(r) for r in rows]
        assert ids == sorted(ids)
        assert len(set(ids)) == 5
        assert store.next_entry_id == max(ids) + 1

    def test_columns_mirror_values(self, rng):
        store = LevelStore(4)
        key = rng.random(4)
        row = store.add(key, 0.25, _record(7, items=42))
        assert np.allclose(store.key_of(row), key)
        assert store.radius_of(row) == 0.25
        block = store.column_block([row])
        assert block.peer_ids.tolist() == [7]
        assert block.items.tolist() == [42.0]
        assert store.value_of(row).level_name == "A"

    def test_dimension_mismatch_rejected(self, rng):
        store = LevelStore(4)
        with pytest.raises(ValidationError):
            store.add(rng.random(5), 0.1, _record(0))

    def test_negative_radius_rejected(self, rng):
        store = LevelStore(2)
        with pytest.raises(ValidationError):
            store.add(rng.random(2), -0.1, _record(0))

    def test_capacity_grows_geometrically(self, rng):
        store = LevelStore(2)
        _populate(store, 200, 2, rng)
        assert store.n_live == 200
        assert store.capacity >= 200

    def test_generation_bumps_on_every_mutation(self, rng):
        store = LevelStore(2)
        g0 = store.generation
        row = store.add(rng.random(2), 0.1, _record(0))
        g1 = store.generation
        assert g1 > g0
        membership = store.new_membership()
        membership.add(row)
        membership.discard(row)  # last holder: tombstones the row
        assert store.generation > g1


class TestChangeStamps:
    """Every generation bump stamps the rows it changed, and only those:
    a snapshot at generation ``g`` still holds on rows stamped ``<= g``."""

    @staticmethod
    def _stamps(store):
        return store.stamps_of(slice(0, store.n_rows)).tolist()

    def test_add_stamps_the_new_row(self, rng):
        store = LevelStore(2)
        _populate(store, 3, 2, rng)
        before = self._stamps(store)
        row = store.add(rng.random(2), 0.1, _record(0))
        assert self._stamps(store) == before + [store.generation]
        assert store.stamps_of(row) == store.generation

    def test_bulk_add_stamps_its_rows_with_one_generation(self, rng):
        store = LevelStore(2)
        _populate(store, 3, 2, rng)
        before = self._stamps(store)
        rows = store.bulk_add(rng.random((70, 2)), 0.1)  # grows too
        assert self._stamps(store) == before + [store.generation] * 70
        assert rows.tolist() == list(range(3, 73))

    def test_tombstone_stamps_the_row(self, rng):
        store = LevelStore(2)
        rows = _populate(store, 4, 2, rng)
        before = self._stamps(store)
        store.remove_entry(store.entry_id_of(rows[1]))
        before[rows[1]] = store.generation
        assert self._stamps(store) == before

    def test_update_stamps_only_a_real_change(self, rng):
        store = LevelStore(3)
        rows = _populate(store, 4, 3, rng)
        entry_id = store.entry_id_of(rows[2])
        before = self._stamps(store)
        store.update_entry(entry_id, radius=store.radius_of(rows[2]))
        assert self._stamps(store) == before  # a no-op patch stamps nothing
        store.update_entry(entry_id, value=_record(5, items=99))
        before[rows[2]] = store.generation
        assert self._stamps(store) == before

    def test_compact_stamps_every_row(self, rng):
        store = LevelStore(2)
        rows = _populate(store, 6, 2, rng)
        for row in rows[:3]:
            store.remove_entry(store.entry_id_of(row))
        store.compact()
        assert self._stamps(store) == [store.generation] * 3


class TestMembershipRefcounts:
    def test_last_discard_tombstones(self, rng):
        store = LevelStore(2)
        row = store.add(rng.random(2), 0.1, _record(0))
        a = store.new_membership()
        b = store.new_membership()
        a.add(row)
        b.add(row)
        a.discard(row)
        assert store.n_live == 1  # b still holds it
        b.discard(row)
        assert store.n_live == 0
        assert store.n_tombstones == 1

    def test_double_add_is_idempotent(self, rng):
        store = LevelStore(2)
        row = store.add(rng.random(2), 0.1, _record(0))
        m = store.new_membership()
        assert m.add(row) is True
        assert m.add(row) is False
        assert len(m) == 1
        m.discard(row)
        assert store.n_live == 0

    def test_add_tombstoned_row_rejected(self, rng):
        store = LevelStore(2)
        row = store.add(rng.random(2), 0.1, _record(0))
        m = store.new_membership()
        m.add(row)
        m.discard(row)
        with pytest.raises(ValidationError):
            store.new_membership().add(row)

    def test_integrity_after_random_ops(self, rng):
        store = LevelStore(3)
        memberships = [store.new_membership() for __ in range(4)]
        rows = _populate(store, 40, 3, rng)
        for row in rows:
            for m in memberships:
                if rng.random() < 0.5:
                    m.add(row)
        for m in memberships:
            held = list(m.rows())
            for row in held:
                if rng.random() < 0.3:
                    m.discard(int(row))
        store.verify_integrity()


class TestBulkLanding:
    """The calls ``bulk_publish`` brackets ``bulk_add`` with.

    ``check_bulk`` asks first; ``assign_rows`` is sequential ``add_many``
    with one refcount pass.
    """

    def test_check_bulk_validates_without_appending(self, rng):
        store = LevelStore(2)
        keys = rng.random((3, 2))
        __, radii, items, peers = store.check_bulk(keys, 0.1, peer_ids=7)
        assert radii.tolist() == [0.1] * 3
        assert items.tolist() == [0.0] * 3 and peers.tolist() == [7] * 3
        for bad in (
            dict(keys=rng.random((3, 3)), radii=0.1),
            dict(keys=keys, radii=[0.1, -0.1, 0.1]),
            dict(keys=keys, radii=0.1, values=[None]),
        ):
            with pytest.raises(ValidationError):
                store.check_bulk(**bad)
            with pytest.raises(ValidationError):
                store.bulk_add(**bad)
        assert store.n_rows == 0 and store.generation == 0

    @pytest.mark.parametrize("column", ["radii", "items", "peer_ids"])
    def test_a_misaligned_column_is_named(self, rng, column):
        store = LevelStore(2)
        batch = dict(keys=rng.random((4, 2)), radii=0.1)
        for length in (3, 5):
            batch[column] = np.ones(length)
            with pytest.raises(ValidationError, match=f"{column} has shape"):
                store.check_bulk(**batch)
            with pytest.raises(ValidationError, match=f"{column} has shape"):
                store.bulk_add(**batch)
        batch[column] = 1  # a scalar still broadcasts
        assert store.check_bulk(**batch)[1].shape == (4,)
        assert store.n_rows == 0 and store.generation == 0

    def _twins(self, rng, n_rows=24, n_members=5):
        stores = []
        for __ in range(2):
            store = LevelStore(2, compact_min_tombstones=10**9)
            store.bulk_add(np.full((n_rows, 2), 0.5), 0.1)
            members = [store.new_membership() for __ in range(n_members)]
            stores.append((store, members))
        # Some rows are held before the batch arrives, the same on both.
        for index in range(n_members):
            held = rng.choice(n_rows, int(rng.integers(0, 6)), replace=False)
            for __, members in stores:
                members[index].add_many(held.tolist())
        return stores

    @given(seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_equals_sequential_add_many(self, seed):
        rng = np.random.default_rng(seed)
        (store, members), (twin, twin_members) = self._twins(rng)
        # Random groups: empty ones, a row in two groups, a row twice in
        # one group, one membership named by two groups.
        sizes = rng.integers(0, 7, int(rng.integers(1, 9)))
        targets = rng.integers(0, len(members), sizes.size).tolist()
        rows = rng.integers(0, store.n_rows, int(sizes.sum()))
        starts = np.concatenate(([0], np.cumsum(sizes)))

        expected = sum(
            twin_members[target].add_many(rows[start:stop].tolist())
            for target, start, stop in zip(targets, starts, starts[1:])
        )
        landed = store.assign_rows(
            [members[target] for target in targets], rows, starts
        )

        assert landed == expected
        for ours, theirs in zip(members, twin_members):
            np.testing.assert_array_equal(ours.rows(), theirs.rows())
        np.testing.assert_array_equal(store._refcounts[: store.n_rows],
                                      twin._refcounts[: twin.n_rows])
        assert store.generation == twin.generation
        store.verify_integrity()

    @given(seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_a_tombstoned_row_refuses_the_whole_batch(self, seed):
        rng = np.random.default_rng(seed)
        (store, members), __ = self._twins(rng)
        holder = store.new_membership()
        dead = int(rng.integers(store.n_rows))
        holder.add(dead)
        for member in members:
            member.discard(dead)
        holder.discard(dead)  # last holder lets go: tombstoned
        rows = rng.permutation(store.n_rows)[:12]
        rows[int(rng.integers(rows.size))] = dead
        before = [member.rows().tolist() for member in members]
        refcounts = store._refcounts[: store.n_rows].copy()
        generation = store.generation
        with pytest.raises(ValidationError, match="tombstoned"):
            store.assign_rows(members[:3], rows, [0, 4, 8, 12])
        assert [member.rows().tolist() for member in members] == before
        np.testing.assert_array_equal(
            store._refcounts[: store.n_rows], refcounts
        )
        assert store.generation == generation

    def test_starts_must_bracket_every_group(self, rng):
        (store, members), __ = self._twins(rng)
        with pytest.raises(ValidationError, match="starts"):
            store.assign_rows(members[:2], np.arange(4), [0, 4])
        store.verify_integrity()

    def test_an_empty_batch_changes_nothing(self, rng):
        (store, members), __ = self._twins(rng)
        generation = store.generation
        assert store.assign_rows([], np.empty(0, dtype=np.int64), [0]) == 0
        assert store.assign_rows(members[:1], [], [0, 0]) == 0
        assert store.generation == generation
        store.verify_integrity()


class TestDeferredHoldings:
    """Rows held for memberships that do not exist yet."""

    def test_landing_equals_assigning_at_once(self, rng):
        stores = [LevelStore(2, compact_min_tombstones=10**9)
                  for __ in range(2)]
        for store in stores:
            store.bulk_add(rng.random((12, 2)), 0.1)
        holders = np.array([7, 2, 7, 9, 2, 2, 7, 9, 9, 2, 7, 2])
        rows = np.arange(12)
        eager, deferred = stores
        members = {holder: eager.new_membership() for holder in (2, 7, 9)}
        order = np.argsort(holders, kind="stable")
        eager.assign_rows(
            [members[h] for h in (2, 7, 9)], rows[order], [0, 5, 9, 12]
        )
        deferred.defer_rows(rows, holders)
        deferred.verify_integrity()  # deferred holdings count as refs
        np.testing.assert_array_equal(
            deferred._refcounts[:12], eager._refcounts[:12]
        )
        landed = {holder: deferred.new_membership() for holder in (2, 7, 9)}
        assert deferred.land_deferred(landed.__getitem__) == 12
        assert deferred.land_deferred(landed.__getitem__) == 0
        for holder in (2, 7, 9):
            np.testing.assert_array_equal(
                landed[holder].rows(), members[holder].rows()
            )
        np.testing.assert_array_equal(
            deferred._refcounts[:12], eager._refcounts[:12]
        )
        assert deferred.generation == eager.generation
        deferred.verify_integrity()

    def test_refuses_tombstoned_or_misaligned_rows(self, rng):
        store = LevelStore(2)
        store.bulk_add(rng.random((3, 2)), 0.1)
        assert store.remove_entry(1)
        with pytest.raises(ValidationError, match="tombstoned"):
            store.defer_rows([0, 1], [5, 5])
        with pytest.raises(ValidationError, match="align"):
            store.defer_rows([0, 2], [5])
        assert store._deferred is None
        np.testing.assert_array_equal(store._refcounts[:3], [0, 0, 0])


class TestCompaction:
    def _store_with_tombstones(self, rng, n=40, doomed=20):
        store = LevelStore(3, compact_min_tombstones=1, compact_fraction=0.1)
        m = store.new_membership()
        rows = _populate(store, n, 3, rng)
        for row in rows:
            m.add(row)
        survivors = {
            store.entry_id_of(r): np.array(store.key_of(r))
            for r in rows[doomed:]
        }
        m.discard_many(np.asarray(rows[:doomed], dtype=np.int64))
        return store, m, survivors

    def test_compact_rewrites_densely(self, rng):
        store, m, survivors = self._store_with_tombstones(rng)
        assert store.needs_compaction()
        compactions_before = store.compactions
        assert store.maybe_compact() is True
        assert store.compactions == compactions_before + 1
        assert store.n_tombstones == 0
        assert store.n_live == len(survivors)
        store.verify_integrity()

    def test_compact_remaps_memberships_and_ids(self, rng):
        store, m, survivors = self._store_with_tombstones(rng)
        store.compact()
        assert len(m) == len(survivors)
        for row in m.rows():
            entry_id = store.entry_id_of(int(row))
            assert entry_id in survivors
            assert np.allclose(store.key_of(int(row)), survivors[entry_id])

    def test_compact_preserves_scores(self, rng):
        store, m, __ = self._store_with_tombstones(rng)
        center = rng.random(3)
        before = level_scores(store.candidate_set(m.rows()), center, 0.6)
        store.compact()
        after = level_scores(store.candidate_set(m.rows()), center, 0.6)
        assert before == after

    def test_no_compaction_below_threshold(self, rng):
        store = LevelStore(2)  # default thresholds: 64 tombstones minimum
        m = store.new_membership()
        rows = _populate(store, 10, 2, rng)
        for row in rows:
            m.add(row)
        m.discard(rows[0])
        assert not store.needs_compaction()
        assert store.maybe_compact() is False


class TestCandidateSetStaleness:
    def _candidates(self, rng, n=10):
        store = LevelStore(3)
        m = store.new_membership()
        for row in _populate(store, n, 3, rng):
            m.add(row)
        return store, m, store.candidate_set(m.rows())

    def test_fresh_set_scores(self, rng):
        store, __, candidates = self._candidates(rng)
        assert not candidates.is_stale()
        scores = level_scores(candidates, rng.random(3), 0.8)
        assert isinstance(scores, Mapping)

    def test_mutation_staletes_outstanding_sets(self, rng):
        store, m, candidates = self._candidates(rng)
        store.add(rng.random(3), 0.1, _record(0))
        assert candidates.is_stale()
        with pytest.raises(StaleCandidateError):
            candidates.columns()
        with pytest.raises(StaleCandidateError):
            candidates.values()

    def test_withdrawal_staletes_outstanding_sets(self, rng):
        store, m, candidates = self._candidates(rng)
        m.discard(int(m.rows()[0]))
        with pytest.raises(StaleCandidateError):
            level_scores(candidates, rng.random(3), 0.8)

    def test_columns_memoized_and_slice_path_consistent(self, rng):
        store, m, candidates = self._candidates(rng, n=12)
        # Contiguous rows: the zero-copy slice path.
        keys, radii, items, peers, key_sq = candidates.columns()
        assert keys.base is not None  # a view, not a copy
        # Scattered rows: the fancy-index gather path.
        scattered = store.candidate_set(m.rows()[::2])
        k2 = scattered.columns()[0]
        assert np.allclose(k2, keys[::2])
        assert candidates.columns()[0] is keys  # memoized


class TestSerializationRoundTrip:
    def test_round_trip_preserves_entry_ids(self, rng, tmp_path):
        store = LevelStore(4)
        m = store.new_membership()
        rows = _populate(store, 12, 4, rng)
        for row in rows:
            m.add(row)
        # Tombstone a few rows so the snapshot skips them and the id
        # allocator high-water mark exceeds the surviving ids.
        m.discard_many(np.asarray(rows[:4], dtype=np.int64))
        path = tmp_path / "store.json"
        save_level_store(store, path)
        restored = load_level_store(path)
        assert restored.dimensionality == 4
        assert restored.n_live == store.n_live
        assert restored.next_entry_id >= store.next_entry_id
        for row in rows[4:]:
            entry_id = store.entry_id_of(row)
            new_row = restored.row_of(entry_id)
            assert np.allclose(restored.key_of(new_row), store.key_of(row))
            assert restored.radius_of(new_row) == store.radius_of(row)
            assert (
                restored.value_of(new_row).peer_id
                == store.value_of(row).peer_id
            )
        # New ids can never collide with restored (or tombstoned) ones.
        fresh = restored.add(rng.random(4), 0.1, _record(9))
        assert restored.entry_id_of(fresh) >= store.next_entry_id

    def test_duplicate_entry_id_rejected(self, rng):
        store = LevelStore(2)
        row = store.add(rng.random(2), 0.1, _record(0))
        with pytest.raises(ValidationError):
            store.restore(
                store.entry_id_of(row), rng.random(2), 0.1, _record(1)
            )

    def test_bad_payload_rejected(self):
        with pytest.raises(ValidationError):
            level_store_from_dict({"store_format_version": 999})
        with pytest.raises(ValidationError):
            level_store_from_dict([1, 2, 3])

    def test_dict_round_trip_equals_file_round_trip(self, rng):
        store = LevelStore(2)
        m = store.new_membership()
        for row in _populate(store, 5, 2, rng):
            m.add(row)
        payload = level_store_to_dict(store)
        restored = level_store_from_dict(payload)
        assert restored.n_live == 5
        assert list(restored.live_rows()) == list(range(5))


class TestEntryIdRefusals:
    """``restore`` takes a whole id >= 0 the dense id map can hold."""

    @pytest.mark.parametrize("bad", [2.7, True, -5, "3", 2.0])
    def test_restore_refuses_an_id_that_is_not_a_whole_count(self, bad):
        store = LevelStore(2)
        with pytest.raises(ValidationError, match="entry_id"):
            store.restore(bad, np.zeros(2), 0.1, _record(0))
        assert store.n_rows == 0 and store.generation == 0
        assert store.next_entry_id == 0

    def test_restore_takes_a_numpy_integer(self):
        store = LevelStore(2)
        row = store.restore(np.int64(4), np.zeros(2), 0.1, _record(0))
        assert store.row_of(4) == row and store.next_entry_id == 5

    @pytest.mark.parametrize("ids", [(0, 10**15), (0,)])
    def test_a_snapshot_past_the_map_span_is_refused_unchanged(self, ids):
        payload = {
            "store_format_version": 1,
            "dimensionality": 2,
            "next_entry_id": 10**15 + 1,
            "entries": [
                {"entry_id": eid, "key": [0.5, 0.5], "radius": 0.1,
                 "value": {"kind": "cluster", "peer_id": 0, "items": 1,
                           "level_name": "A"}}
                for eid in ids
            ],
        }
        with pytest.raises(ValidationError, match="entry id"):
            level_store_from_dict(payload)
        store = LevelStore(2)
        store.add(np.zeros(2), 0.1, _record(0))
        generation = store.generation
        with pytest.raises(ValidationError, match="entry id"):
            store.restore(10**15, np.zeros(2), 0.1, _record(0))
        assert store.generation == generation and store.n_rows == 1
        assert store.next_entry_id == 1 and not store.has_entry(10**15)

    @pytest.mark.parametrize("value", [None, 3, "cluster", ["cluster"]])
    def test_an_entry_value_that_is_not_a_dict_is_refused(self, value):
        payload = {
            "store_format_version": 1,
            "dimensionality": 2,
            "entries": [
                {"entry_id": 0, "key": [0.5, 0.5], "radius": 0.1,
                 "value": value},
            ],
        }
        with pytest.raises(ValidationError, match="entry value"):
            level_store_from_dict(payload)

    def test_a_churned_round_trip_always_restores(self, rng):
        store = LevelStore(2)
        for peer in rng.integers(4, size=3000).tolist():
            store.add(rng.random(2), 0.05, _record(peer))
        store.restore(90_000, rng.random(2), 0.1, _record(1))
        for eid in range(1, 3000, 7):
            store.remove_entry(eid)
        store.remove_peer_entries(2)
        store.compact()
        store.add(rng.random(2), 0.2, _record(3))
        text = json.dumps(level_store_to_dict(store))
        restored = level_store_from_dict(json.loads(text))
        restored.verify_integrity()
        assert restored.next_entry_id == store.next_entry_id == 90_002
        assert restored.n_live == store.n_live
        for row in store.live_rows().tolist():
            eid = store.entry_id_of(row)
            twin = restored.row_of(eid)
            assert restored.key_of(twin).tolist() == store.key_of(row).tolist()
            assert restored.radius_of(twin) == store.radius_of(row)


class TestEntryIdMapProperty:
    """The dense id map against a dict oracle over interleaved writes."""

    OPS = st.lists(
        st.one_of(
            st.tuples(st.just("add"), st.integers(0, 3)),
            st.tuples(st.just("restore"), st.integers(0, 80), st.integers(0, 3)),
            st.tuples(st.just("bulk"), st.integers(0, 9), st.integers(0, 3)),
            st.tuples(st.just("update"), st.integers(0, 10**6)),
            st.tuples(st.just("remove"), st.integers(-2, 90)),
            st.tuples(st.just("reap"), st.integers(0, 3)),
            st.tuples(st.just("compact")),
        ),
        max_size=40,
    )

    @given(ops=OPS)
    @settings(max_examples=150, deadline=None)
    def test_lookups_equal_the_oracle_after_every_step(self, ops):
        # Compaction runs only when forced, so the oracle can renumber.
        store = LevelStore(2, compact_min_tombstones=10**9)
        ledger: list = []  # per row: [entry id, peer, live]
        next_id, issued = 0, set()

        def append(eid, peer):
            nonlocal next_id
            ledger.append([eid, peer, True])
            issued.add(eid)
            next_id = max(next_id, eid + 1)

        for step, (op, *args) in enumerate(ops):
            oracle = {eid: row for row, (eid, __, live) in enumerate(ledger) if live}
            key = np.full(2, (step % 10) / 10.0)
            if op == "add":
                store.add(key, 0.1, _record(args[0]))
                append(next_id, args[0])
            elif op == "restore":
                eid, peer = args
                if eid in oracle:
                    with pytest.raises(ValidationError, match="duplicate"):
                        store.restore(eid, key, 0.1, _record(peer))
                else:
                    store.restore(eid, key, 0.1, _record(peer))
                    append(eid, peer)
            elif op == "bulk":
                n, peer = args
                store.bulk_add(np.tile(key, (n, 1)), 0.1, peer_ids=peer)
                for eid in range(next_id, next_id + n):
                    append(eid, peer)
            elif op == "update" and oracle:
                eid = sorted(oracle)[args[0] % len(oracle)]
                assert store.update_entry(eid, radius=0.2) == oracle[eid]
            elif op == "remove":
                assert store.remove_entry(args[0]) == (args[0] in oracle)
                if args[0] in oracle:
                    ledger[oracle[args[0]]][2] = False
            elif op == "reap":
                doomed = [r for r in ledger if r[2] and r[1] == args[0]]
                assert store.remove_peer_entries(args[0]) == len(doomed)
                for record in doomed:
                    record[2] = False
            elif op == "compact":
                store.compact()
                ledger[:] = [record for record in ledger if record[2]]
            oracle = {eid: row for row, (eid, __, live) in enumerate(ledger) if live}
            assert store.next_entry_id == next_id
            for eid in issued | {-1, store.next_entry_id}:
                assert store.has_entry(eid) == (eid in oracle)
                if eid in oracle:
                    assert store.row_of(eid) == oracle[eid]
                else:
                    with pytest.raises(ValidationError):
                        store.row_of(eid)
            store.verify_integrity()


class TestUpdateEntry:
    def _one_entry(self, rng):
        store = LevelStore(3)
        m = store.new_membership()
        key = rng.random(3)
        row = store.add(key, 0.2, _record(4, items=12))
        m.add(row)
        return store, m, store.entry_id_of(row), key

    def test_noop_update_does_not_bump_generation(self, rng):
        store, m, entry_id, key = self._one_entry(rng)
        candidates = store.candidate_set(m.rows())
        generation = store.generation
        # Re-patching the stored state exactly is the adaptation loop's
        # steady state; it must not invalidate outstanding snapshots.
        store.update_entry(
            entry_id, key=key, radius=0.2, value=_record(4, items=12)
        )
        assert store.generation == generation
        assert not candidates.is_stale()
        candidates.columns()  # does not raise

    def test_real_radius_change_bumps_generation(self, rng):
        store, m, entry_id, key = self._one_entry(rng)
        candidates = store.candidate_set(m.rows())
        generation = store.generation
        row = store.update_entry(entry_id, radius=0.3)
        assert store.generation == generation + 1
        assert store.radius_of(row) == 0.3
        assert candidates.is_stale()
        with pytest.raises(StaleCandidateError):
            candidates.columns()

    def test_real_key_and_value_changes_bump_generation(self, rng):
        store, __, entry_id, key = self._one_entry(rng)
        generation = store.generation
        store.update_entry(entry_id, value=_record(4, items=13))
        assert store.generation == generation + 1
        store.update_entry(entry_id, key=rng.random(3))
        assert store.generation == generation + 2

    def test_all_none_update_is_noop(self, rng):
        store, __, entry_id, __key = self._one_entry(rng)
        generation = store.generation
        store.update_entry(entry_id)
        assert store.generation == generation

    def test_equal_payload_object_still_swapped_in(self, rng):
        store, __, entry_id, __key = self._one_entry(rng)
        replacement = _record(4, items=12)
        row = store.update_entry(entry_id, value=replacement)
        assert store.value_of(row) is replacement


class TestBatchedRemoval:
    def _twin_stores(self, seed, n=60, n_peers=5):
        """Two identically populated stores with identical memberships."""
        stores = []
        for __ in range(2):
            rng = np.random.default_rng(seed)
            store = LevelStore(
                3, compact_min_tombstones=1, compact_fraction=0.1
            )
            memberships = [store.new_membership() for _ in range(4)]
            for row in _populate(store, n, 3, rng, n_peers=n_peers):
                memberships[0].add(row)
                for m in memberships[1:]:
                    if rng.random() < 0.4:
                        m.add(row)
            stores.append((store, memberships))
        return stores

    @staticmethod
    def _identity(store, memberships):
        """Row-index-free snapshot: entry ids, keys, and held sets."""
        live = {
            int(store.entry_id_of(int(row))): (
                tuple(store.key_of(int(row))),
                store.radius_of(int(row)),
                int(store.column_block([row]).peer_ids[0]),
            )
            for row in store.live_rows()
        }
        held = [
            {int(store.entry_id_of(int(row))) for row in m.rows()}
            for m in memberships
        ]
        return live, held

    def test_batched_matches_sequential_reference(self):
        (batched, b_members), (sequential, s_members) = self._twin_stores(7)
        doomed = sorted(
            int(sequential.entry_id_of(int(row)))
            for row in sequential.rows_for_peer(2)
        )
        assert doomed  # the workload must actually exercise removal
        removed = batched.remove_peer_entries(2)
        for entry_id in doomed:
            assert sequential.remove_entry(entry_id)
        sequential.maybe_compact()
        assert removed == len(doomed)
        assert self._identity(batched, b_members) == self._identity(
            sequential, s_members
        )
        batched.verify_integrity()
        sequential.verify_integrity()

    def test_unknown_peer_removes_nothing(self, rng):
        store = LevelStore(3)
        m = store.new_membership()
        for row in _populate(store, 10, 3, rng):
            m.add(row)
        generation = store.generation
        assert store.remove_peer_entries(999) == 0
        assert store.generation == generation
        assert store.n_live == 10


class TestQueryHeat:
    def test_union_bumps_heat_but_not_generation(self, rng):
        store = LevelStore(3)
        m = store.new_membership()
        rows = _populate(store, 6, 3, rng)
        for row in rows:
            m.add(row)
        candidates = store.candidate_set(m.rows())
        generation = store.generation
        merged = store.union_candidates(
            [np.asarray(rows[:4]), np.asarray(rows[2:])]
        )
        assert len(merged.rows) == 6  # deduplicated union
        # Heat is observational: outstanding snapshots stay valid.
        assert store.generation == generation
        assert not candidates.is_stale()
        heat = store.sphere_heat()
        assert all(heat[store.entry_id_of(r)] == 1 for r in rows)

    def test_compaction_preserves_heat(self, rng):
        store = LevelStore(3, compact_min_tombstones=1, compact_fraction=0.1)
        m = store.new_membership()
        rows = _populate(store, 20, 3, rng)
        for row in rows:
            m.add(row)
        for __ in range(3):
            store.union_candidates([np.asarray(rows[10:])])
        before = store.sphere_heat()
        m.discard_many(np.asarray(rows[:10], dtype=np.int64))
        store.compact()
        after = store.sphere_heat()
        assert after == {
            eid: heat for eid, heat in before.items() if eid in after
        }
        assert sum(after.values()) == 30  # 10 survivors x 3 queries


class TestChurnProperties:
    """Interleaved grow / tombstone / compact against a shadow model."""

    @given(seed=st.integers(0, 500))
    @settings(max_examples=20, deadline=None)
    def test_interleaved_ops_keep_store_consistent(self, seed):
        rng = np.random.default_rng(seed)
        d = 3
        store = LevelStore(d, compact_min_tombstones=1, compact_fraction=0.25)
        memberships = [store.new_membership() for __ in range(3)]
        shadow: dict[int, tuple] = {}
        held: dict[int, set] = {0: set(), 1: set(), 2: set()}
        for __ in range(int(rng.integers(30, 80))):
            op = rng.random()
            if op < 0.55 or not shadow:
                key = rng.random(d)
                radius = float(rng.uniform(0.0, 0.5))
                peer = int(rng.integers(5))
                row = store.add(key, radius, _record(peer))
                entry_id = store.entry_id_of(row)
                shadow[entry_id] = (tuple(key), radius, peer)
                memberships[0].add(row)
                held[0].add(entry_id)
                for index in (1, 2):
                    if rng.random() < 0.5:
                        memberships[index].add(row)
                        held[index].add(entry_id)
            elif op < 0.9:
                entry_id = int(rng.choice(sorted(shadow)))
                holders = [i for i in range(3) if entry_id in held[i]]
                index = holders[int(rng.integers(len(holders)))]
                memberships[index].discard(store.row_of(entry_id))
                held[index].discard(entry_id)
                if not any(entry_id in h for h in held.values()):
                    del shadow[entry_id]  # last holder: tombstoned
            else:
                store.compact()
            store.verify_integrity()
        assert store.n_live == len(shadow)
        for entry_id, (key, radius, peer) in shadow.items():
            row = store.row_of(entry_id)
            assert tuple(store.key_of(row)) == key
            assert store.radius_of(row) == radius
            assert store.column_block([row]).peer_ids.tolist() == [peer]
        for index, membership in enumerate(memberships):
            got = {
                int(store.entry_id_of(int(row)))
                for row in membership.rows()
            }
            assert got == held[index]


class TestParityProperties:
    """Store-backed filtering/scoring pinned to the scalar oracle."""

    @given(seed=st.integers(0, 500))
    @settings(max_examples=25, deadline=None)
    def test_filter_matches_scalar_oracle(self, seed):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(2, 9))
        n = int(rng.integers(1, 60))
        store = LevelStore(d)
        m = store.new_membership()
        entries = []
        for __ in range(n):
            key = rng.random(d)
            radius = float(rng.uniform(0.0, 0.6))
            value = _record(int(rng.integers(6)))
            m.add(store.add(key, radius, value))
            entries.append(StoredEntry(key=key, radius=radius, value=value))
        center = rng.random(d)
        eps = float(rng.uniform(0.0, 1.2))
        expected = [i for i, e in enumerate(entries)
                    if e.intersects(center, eps)]
        got = list(store.intersecting_rows(m.rows(), center, eps))
        assert got == expected
        mask = store.intersection_mask(center, eps)
        assert list(m.rows_matching(mask)) == expected

    @given(seed=st.integers(0, 500))
    @settings(max_examples=25, deadline=None)
    def test_candidate_scoring_matches_scalar_oracle(self, seed):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(2, 9))
        n = int(rng.integers(1, 60))
        store = LevelStore(d)
        m = store.new_membership()
        entries = []
        for __ in range(n):
            key = rng.random(d)
            radius = float(rng.uniform(0.0, 0.6))
            value = _record(int(rng.integers(6)), items=int(rng.integers(1, 40)))
            m.add(store.add(key, radius, value))
            entries.append(StoredEntry(key=key, radius=radius, value=value))
        center = rng.random(d)
        eps = float(rng.uniform(0.0, 1.2))
        batch_stats: dict = {}
        scalar_stats: dict = {}
        candidates = store.candidate_set(m.rows())
        assert isinstance(candidates, CandidateSet)
        batch = level_scores(candidates, center, eps, stats=batch_stats)
        scalar = level_scores_scalar(
            entries, center, eps, stats=scalar_stats
        )
        assert batch_stats == scalar_stats
        assert set(batch) == set(scalar)
        for peer, truth in scalar.items():
            assert batch[peer] == pytest.approx(truth, rel=1e-9)


class TestOneColumnKeys:
    """At d = 1 the mask kernel multiplies where it used to call ``gemv``
    (:meth:`repro.index.CellDirectory.hits`): one product per row and
    nothing accumulated. Only the sign of a zero product can differ
    (``gemv`` adds it to +0.0), and ``key_sq - 2 * dots`` drops that
    sign — the squared distances are the same bits."""

    EDGE = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e300,
            -1e300, 1e-300, 1.0, -1.0]

    @given(
        keys=st.lists(
            st.floats(allow_nan=False, allow_infinity=False)
            | st.sampled_from(EDGE),
            min_size=1, max_size=64,
        ),
        c=st.floats(allow_nan=False, allow_infinity=False)
        | st.sampled_from(EDGE),
    )
    @settings(max_examples=200, deadline=None)
    def test_product_is_the_matvec(self, keys, c):
        keys = np.array(keys, dtype=np.float64).reshape(-1, 1)
        center = np.array([c], dtype=np.float64)
        with np.errstate(over="ignore", invalid="ignore"):
            product, matvec = keys[:, 0] * center[0], keys @ center
            key_sq = np.einsum("ij,ij->i", keys, keys)
            np.testing.assert_array_equal(product, matvec)
            assert (key_sq - 2.0 * product).tobytes() == (
                key_sq - 2.0 * matvec
            ).tobytes()

    @given(seed=st.integers(0, 500))
    @settings(max_examples=25, deadline=None)
    def test_mask_distances_are_the_matvec_kernels(self, seed):
        rng = np.random.default_rng(seed)
        store = LevelStore(1)
        _populate(store, int(rng.integers(1, 80)), 1, rng)
        center, eps = rng.random(1), float(rng.uniform(0.0, 0.5))
        hits = store.hits(center, eps)  # under the floor: positions are rows
        mask = store.intersection_mask(center, eps)
        np.testing.assert_array_equal(hits.positions, np.flatnonzero(mask))
        keys, radii = store._keys[: store.n_rows], store._radii[: store.n_rows]
        d2 = store._key_sq[: store.n_rows] - 2.0 * (keys @ center)
        d2 += float(center @ center)
        expected = np.sqrt(np.maximum(d2, 0.0))
        near = np.abs(expected - (radii + eps)) <= 1e-5
        expected[near] = np.abs(keys[near, 0] - center[0])
        assert hits.dists.tobytes() == expected[hits.positions].tobytes()
        assert mask.tolist() == [
            StoredEntry(key=k, radius=float(r), value=None).intersects(
                center, eps
            )
            for k, r in zip(keys, radii)
        ]
