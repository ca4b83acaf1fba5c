"""Churn-then-query regression tests for the shared level stores.

The old scoring path cached stacked entry arrays behind an ``id()``-keyed
LRU, so a block built before ``withdraw_summaries`` could keep scoring
withdrawn spheres (and pinned them alive). With the columnar store this
is structurally impossible: withdrawal tombstones the rows and bumps the
generation, so a pre-churn ``CandidateSet`` raises
:class:`repro.exceptions.StaleCandidateError` and a fresh query can never
see the withdrawn rows. These tests pin that contract end to end,
plus the leave/withdraw/republish membership invariants.
"""

import numpy as np
import pytest

from repro.core.network import HyperMConfig, HyperMNetwork
from repro.core.scoring import level_scores
from repro.exceptions import StaleCandidateError


@pytest.fixture
def network(rng):
    net = HyperMNetwork(16, HyperMConfig(levels_used=3, n_clusters=3), rng=0)
    for p in range(5):
        net.add_peer(rng.random((20, 16)), np.arange(p * 20, (p + 1) * 20))
    net.publish_all()
    return net


def _verify_all_stores(net):
    for overlay in net.overlays.values():
        overlay.level_store.verify_integrity()


def _query_receipt(net, level, center, eps):
    overlay = net.overlays[level]
    origin = overlay.node_ids[0]
    return overlay, overlay.range_query(origin, center, eps)


class TestWithdrawnSpheresNeverScored:
    def test_stale_candidate_set_raises(self, network, rng):
        level = network.levels[0]
        center = rng.random(level.dimensionality)
        overlay, receipt = _query_receipt(network, level, center, 6.0)
        assert len(receipt.entries) > 0
        network.withdraw_summaries(2)
        # The pre-churn snapshot is dead, not silently stale.
        with pytest.raises(StaleCandidateError):
            level_scores(receipt.entries, center, 6.0)

    def test_fresh_query_excludes_withdrawn_peer(self, network, rng):
        level = network.levels[0]
        center = rng.random(level.dimensionality)
        overlay, receipt = _query_receipt(network, level, center, 8.0)
        before = level_scores(receipt.entries, center, 8.0)
        assert 2 in before  # broad query: every publisher scores
        network.withdraw_summaries(2)
        overlay, receipt = _query_receipt(network, level, center, 8.0)
        after = level_scores(receipt.entries, center, 8.0)
        assert 2 not in after
        assert {p: s for p, s in before.items() if p != 2} == after

    def test_withdrawn_rows_gone_from_every_store(self, network):
        network.withdraw_summaries(3)
        for overlay in network.overlays.values():
            store = overlay.level_store
            assert store.rows_for_peer(3).size == 0
            for node_id in overlay.node_ids:
                rows = overlay.node(node_id).membership.rows()
                assert 3 not in store.column_block(rows).peer_ids
        _verify_all_stores(network)

    def test_abrupt_leave_keeps_summaries_scorable(self, network, rng):
        # Abrupt departure (the MANET default): the peer goes offline but
        # its summaries stay in the index, handed to surviving nodes.
        level = network.levels[0]
        center = rng.random(level.dimensionality)
        network.depart(1)
        overlay, receipt = _query_receipt(network, level, center, 8.0)
        scores = level_scores(receipt.entries, center, 8.0)
        assert 1 in scores
        _verify_all_stores(network)


class TestChurnInvariants:
    def test_leave_preserves_distinct_spheres(self, network):
        before = {
            str(level): overlay.level_store.n_live
            for level, overlay in network.overlays.items()
        }
        network.depart(0)
        network.depart(4)
        for level, overlay in network.overlays.items():
            # Zone handoff moves memberships; it never drops rows.
            assert overlay.level_store.n_live == before[str(level)]
        _verify_all_stores(network)

    def test_withdraw_after_leave(self, network):
        network.depart(2)
        removed = network.withdraw_summaries(2)
        assert removed > 0
        for overlay in network.overlays.values():
            assert overlay.level_store.rows_for_peer(2).size == 0
        _verify_all_stores(network)

    def test_republish_swaps_entry_ids(self, network, rng):
        overlay_ids_before = {
            str(level): set(
                int(overlay.level_store.entry_id_of(int(row)))
                for row in overlay.level_store.rows_for_peer(2)
            )
            for level, overlay in network.overlays.items()
        }
        network.peers[2].add_items(
            rng.random((20, 16)), np.arange(900, 920)
        )
        network.republish_peer(2)
        for level, overlay in network.overlays.items():
            store = overlay.level_store
            ids_after = {
                int(store.entry_id_of(int(row)))
                for row in store.rows_for_peer(2)
            }
            # Old generations fully withdrawn, new ids freshly minted.
            assert not (ids_after & overlay_ids_before[str(level)])
            assert ids_after
        _verify_all_stores(network)

    def test_batched_reap_preserves_survivor_identity(self, network):
        # remove_peer_entries sweeps every membership once; the post-state
        # must be exactly "drop the peer's entry ids, touch nothing else".
        for level, overlay in network.overlays.items():
            store = overlay.level_store
            doomed = {
                int(store.entry_id_of(int(row)))
                for row in store.rows_for_peer(4)
            }
            assert doomed
            expected_live = {
                int(store.entry_id_of(int(row)))
                for row in store.live_rows()
            } - doomed
            expected_held = {
                node_id: {
                    int(store.entry_id_of(int(row)))
                    for row in overlay.node(node_id).membership.rows()
                } - doomed
                for node_id in overlay.node_ids
            }
            removed = store.remove_peer_entries(4)
            assert removed == len(doomed)
            assert {
                int(store.entry_id_of(int(row)))
                for row in store.live_rows()
            } == expected_live
            for node_id, ids in expected_held.items():
                got = {
                    int(store.entry_id_of(int(row)))
                    for row in overlay.node(node_id).membership.rows()
                }
                assert got == ids
        _verify_all_stores(network)

    def test_churned_stores_still_answer_queries(self, network, rng):
        network.depart(0, withdraw_summaries=True)
        network.withdraw_summaries(1)
        network.republish_peer(3)
        _verify_all_stores(network)
        result = network.range_query(
            rng.random(16), 0.8, origin_peer=2
        )
        assert result.peer_scores is not None
