"""Tests for the epoch-based delta publish pipeline."""

import numpy as np
import pytest

from repro.clustering import EpochClusterState
from repro.clustering.summaries import summarize_peer_data
from repro.core.baselines import CentralizedIndex
from repro.core.network import HyperMConfig, HyperMNetwork
from repro.exceptions import ValidationError
from repro.net.messages import (
    BYTES_PER_SCALAR,
    HEADER_BYTES,
    MessageKind,
    vector_message_size,
)
from repro.overlay import BatonNetwork, VBITree


def _peer_entry_ids(net, peer_id):
    """``{level: frozenset(entry ids)}`` currently published by a peer."""
    out = {}
    for level, overlay in net.overlays.items():
        store = overlay.level_store
        rows = store.rows_for_peer(peer_id)
        out[level] = frozenset(store.entry_id_of(int(r)) for r in rows)
    return out


@pytest.fixture
def published_network(rng):
    net = HyperMNetwork(16, HyperMConfig(levels_used=3, n_clusters=4), rng=0)
    for p in range(6):
        net.add_peer(rng.random((30, 16)), np.arange(p * 30, (p + 1) * 30))
    net.publish_all()
    return net


class TestIdempotentRepublish:
    def test_second_republish_is_free(self, published_network, rng):
        net = published_network
        net.peers[2].add_items(rng.random((3, 16)), np.arange(900, 903))
        net.republish_peer(2)
        # No mutations since: the delta round must cost nothing at all.
        bytes_before = net.fabric.metrics.total_bytes
        hops_before = net.fabric.metrics.total_hops
        report = net.republish_peer(2)
        assert report.items_published == 0
        assert report.spheres_inserted == 0
        assert report.spheres_updated == 0
        assert report.spheres_removed == 0
        assert report.bytes_sent == 0
        assert net.fabric.metrics.total_bytes == bytes_before
        assert net.fabric.metrics.total_hops == hops_before

    def test_clean_peer_republish_is_free(self, published_network):
        report = published_network.republish_peer(0)
        assert report.items_published == 0
        assert report.bytes_sent == 0


class TestAddItemsCollisions:
    def test_duplicate_ids_within_batch_rejected(self, published_network, rng):
        peer = published_network.peers[1]
        with pytest.raises(ValidationError, match="duplicate"):
            peer.add_items(
                rng.random((2, 16)), np.asarray([700, 700], dtype=np.int64)
            )

    def test_collision_with_held_ids_rejected(self, published_network, rng):
        peer = published_network.peers[1]
        held = int(peer.item_ids[0])
        with pytest.raises(ValidationError, match=str(held)):
            peer.add_items(
                rng.random((1, 16)), np.asarray([held], dtype=np.int64)
            )

    def test_collision_leaves_peer_unchanged(self, published_network, rng):
        peer = published_network.peers[1]
        n_before = peer.n_items
        with pytest.raises(ValidationError):
            peer.add_items(
                rng.random((1, 16)),
                np.asarray([int(peer.item_ids[0])], dtype=np.int64),
            )
        assert peer.n_items == n_before


class TestDeltaEntryIds:
    def test_small_add_patches_in_place(self, published_network, rng):
        net = published_network
        ids_before = _peer_entry_ids(net, 3)
        net.peers[3].add_items(rng.random((2, 16)), np.arange(910, 912))
        report = net.republish_peer(3)
        ids_after = _peer_entry_ids(net, 3)
        # A 2-item add is far below the drift threshold: updated spheres
        # keep their entry ids, so the published id set can only grow.
        for level in net.levels:
            assert ids_before[level] <= ids_after[level]
        assert report.spheres_updated + report.spheres_inserted > 0
        assert report.items_published == 2

    def test_drift_triggers_full_fallback(self, published_network, rng):
        net = published_network
        ids_before = _peer_entry_ids(net, 3)
        # 30 new over 30 published is 100% churn: past the 50% threshold.
        net.peers[3].add_items(rng.random((30, 16)), np.arange(920, 950))
        report = net.republish_peer(3)
        ids_after = _peer_entry_ids(net, 3)
        for level in net.levels:
            assert not (ids_before[level] & ids_after[level])
        assert report.items_published == 60

    def test_force_full_rebuilds(self, published_network):
        net = published_network
        ids_before = _peer_entry_ids(net, 4)
        report = net.publish_delta(4, force_full=True)
        ids_after = _peer_entry_ids(net, 4)
        for level in net.levels:
            assert not (ids_before[level] & ids_after[level])
        assert report.items_published == 30

    def test_summary_counts_stay_consistent(self, published_network, rng):
        net = published_network
        net.peers[3].add_items(rng.random((4, 16)), np.arange(960, 964))
        net.republish_peer(3)
        for level in net.levels:
            assert net.peers[3].summary.items_summarised(level) == 34


class TestRemovals:
    def test_remove_then_delta_updates_counts(self, published_network):
        net = published_network
        peer = net.peers[2]
        victims = peer.item_ids[:5].copy()
        assert peer.remove_items(victims) == 5
        report = net.republish_peer(2)
        assert report.items_published == 5
        for level in net.levels:
            assert peer.summary.items_summarised(level) == 25

    def test_remove_unknown_id_raises(self, published_network):
        with pytest.raises(ValidationError):
            published_network.peers[2].remove_items([987654])

    def test_mass_removal_falls_back_to_full(self, published_network):
        net = published_network
        peer = net.peers[2]
        peer.remove_items(peer.item_ids[:29].copy())
        report = net.republish_peer(2)
        # 29 of 30 removed is way past the drift threshold: the round
        # degenerates to a full rebuild over the lone survivor.
        assert report.items_published == 1
        assert report.spheres_removed > 0
        for level in net.levels:
            assert peer.summary.items_summarised(level) == 1

    def test_removed_items_stop_matching(self, published_network):
        net = published_network
        peer = net.peers[2]
        target = peer.data[0].copy()
        victim = int(peer.item_ids[0])
        peer.remove_items([victim])
        net.republish_peer(2)
        result = net.range_query(target, 0.5, max_peers=None)
        assert victim not in set(result.item_ids)


class TestRevival:
    def test_delta_republish_after_withdrawal(self, published_network, rng):
        net = published_network
        net.withdraw_summaries(5)
        assert all(
            not ids for ids in _peer_entry_ids(net, 5).values()
        )
        net.peers[5].add_items(rng.random((2, 16)), np.arange(970, 972))
        net.republish_peer(5)
        ids_after = _peer_entry_ids(net, 5)
        # Withdrawn entries were revived with fresh ids: coverage is back.
        for level in net.levels:
            assert ids_after[level]
        truth = CentralizedIndex.from_network(net)
        query = net.peers[5].data[3]
        expected = truth.range_search(query, 0.4)
        got = net.range_query(query, 0.4, max_peers=None)
        assert set(got.item_ids) == set(expected)


class TestDeltaMetrics:
    def test_publish_delta_counters(self, published_network, rng):
        from repro.obs import registry as obs_registry

        metrics = obs_registry.metrics()
        ops_before = metrics.counter("publish.delta.operations").value
        net = published_network
        net.peers[1].add_items(rng.random((2, 16)), np.arange(980, 982))
        report = net.republish_peer(1)
        assert (
            metrics.counter("publish.delta.operations").value
            == ops_before + 1
        )
        assert report.bytes_sent > 0


class TestEpochStateUnit:
    def _state(self, rng, n=40, d=16, k=4, levels=3):
        data = rng.random((n, d))
        summary = summarize_peer_data(
            data, n_clusters=k, levels_used=levels, rng=rng
        )
        return data, EpochClusterState(summary)

    def test_roundtrip_matches_summary(self, rng):
        data, state = self._state(rng)
        snap = state.to_summary()
        for level in state.levels:
            assert len(snap.spheres[level]) == len(state.spheres[level])
            assert snap.items_summarised(level) == 40

    def test_new_from_mismatch_rejected(self, rng):
        data, state = self._state(rng)
        with pytest.raises(ValidationError):
            state.build_delta(data, 10, n_clusters=4, rng=rng)

    def test_empty_delta_for_no_mutations(self, rng):
        data, state = self._state(rng)
        delta = state.build_delta(data, 40, n_clusters=4, rng=rng)
        assert delta.is_empty
        assert not delta.full

    def test_sid_start_offsets_identities(self, rng):
        data = rng.random((40, 16))
        summary = summarize_peer_data(
            data, n_clusters=4, levels_used=3, rng=rng
        )
        state = EpochClusterState(summary, sid_start=100)
        for level in state.levels:
            assert min(state.spheres[level]) >= 100
        assert state.sid_high >= 100

    def test_items_always_inside_spheres(self, rng):
        """Theorem 3.1 invariant: every item lies inside its sphere."""
        from repro.wavelets.multiresolution import decompose_dataset

        data, state = self._state(rng)
        extra = rng.random((6, 16))
        grown = np.vstack([data, extra])
        state.build_delta(grown, 40, n_clusters=4, rng=rng)
        decomposition = decompose_dataset(grown)
        for level in state.levels:
            coeffs = decomposition[level]
            labels = state.labels[level]
            for pos in range(grown.shape[0]):
                sphere = state.spheres[level][int(labels[pos])]
                dist = float(
                    np.linalg.norm(coeffs[pos] - sphere.centroid)
                )
                assert dist <= sphere.radius + 1e-9


class TestLevelStorePatch:
    def _insert_one(self, can):
        store = can.level_store
        entry_id = store.next_entry_id
        can.insert(can.node_ids[0], np.full(2, 0.5), "original", radius=0.1)
        return store, entry_id

    def test_update_entry_patches_columns(self, small_can):
        store, entry_id = self._insert_one(small_can)
        assert store.has_entry(entry_id)
        row = store.update_entry(entry_id, radius=0.25, value="patched")
        assert store.radius_of(row) == 0.25
        assert store.value_of(row) == "patched"

    def test_update_entry_validations(self, small_can):
        store, entry_id = self._insert_one(small_can)
        with pytest.raises(ValidationError):
            store.update_entry(entry_id, radius=-1.0)
        with pytest.raises(ValidationError):
            store.update_entry(999999, radius=0.2)
        with pytest.raises(ValidationError):
            store.update_entry(entry_id, key=np.zeros(3))

    def test_update_bumps_generation(self, small_can):
        store, entry_id = self._insert_one(small_can)
        gen = store.generation
        store.update_entry(entry_id, radius=0.3)
        assert store.generation == gen + 1


class TestHolderPass:
    """``patch_entries`` / ``retract_entries`` frame every holder once."""

    @staticmethod
    def _holder_counts(overlay, rows):
        """``{node_id: held rows among rows}`` by a plain scan, node order."""
        counts = {}
        for node_id in overlay.node_ids:
            held = set(overlay.node(node_id).membership.rows()) & set(rows)
            if held:
                counts[node_id] = len(held)
        return counts

    @staticmethod
    def _record(overlay, monkeypatch):
        frames = []
        transmit = overlay.fabric.transmit

        def recording(source, destination, kind, size):
            frames.append((kind, source, destination, size))
            return transmit(source, destination, kind, size)

        monkeypatch.setattr(overlay.fabric, "transmit", recording)
        return frames

    @pytest.mark.parametrize("backend", [BatonNetwork, VBITree])
    def test_patch_then_retract_after_compact(self, backend, monkeypatch):
        overlay = backend(2, rng=5)
        ids = overlay.grow(16)
        store = overlay.level_store
        filler = store.next_entry_id
        overlay.insert(ids[1], [0.1, 0.1], "filler")
        sphere, point = filler + 1, filler + 2
        overlay.insert(ids[2], [0.5, 0.5], "sphere", radius=0.15)
        overlay.insert(ids[3], [0.55, 0.45], "point")
        rows = [store.row_of(sphere), store.row_of(point)]
        before = self._holder_counts(overlay, rows)
        sphere_holders = [
            n for n in ids if store.row_of(sphere) in overlay.node(n).membership
        ]
        assert len(sphere_holders) >= 3
        origin = next(iter(before))  # a holder: its own patch is free
        frames = self._record(overlay, monkeypatch)

        overlay.patch_entries(origin, [(sphere, 0.3, "grown"), (point, 0.0, "p")])
        cover = overlay._cover(store.key_of(store.row_of(sphere)), 0.3)
        replicas = [n for n in cover if n not in sphere_holders]
        assert replicas  # the radius grew past the old cover
        assert frames == [
            (MessageKind.PUBLISH_DELTA, origin, node_id,
             HEADER_BYTES + 3 * BYTES_PER_SCALAR * count)
            for node_id, count in before.items() if node_id != origin
        ] + [
            (MessageKind.REPLICATE, min(sphere_holders), node_id,
             vector_message_size(2, scalars=2))
            for node_id in replicas
        ]

        overlay.retract_entries(ids[0], [filler])
        store.compact()
        remapped = [store.row_of(sphere), store.row_of(point)]
        assert remapped == [row - 1 for row in rows]
        rows = remapped
        after = self._holder_counts(overlay, rows)
        assert set(after) == set(before) | set(replicas)
        frames.clear()
        hops = overlay.retract_entries(origin, [sphere, point])
        assert frames == [
            (MessageKind.PUBLISH_DELTA, origin, node_id,
             HEADER_BYTES + BYTES_PER_SCALAR * count)
            for node_id, count in after.items() if node_id != origin
        ]
        assert hops == len(frames)
        assert not store.has_entry(sphere) and not store.has_entry(point)
