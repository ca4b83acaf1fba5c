"""Load-adaptation invariants: rebalancing, replication retuning, multicast.

The hard contract pinned here is that adaptation never changes *what* a
query answers, only *where* the load lands:

* ``rebalance_zone`` keeps the zones a tiling of the unit torus and keeps
  the Theorem 4.1 invariant — every node whose zone overlaps a sphere
  holds its row — so flooded range queries return identical entry sets.
* ``boost_replication`` only adds holders (queries dedup the shared row);
  ``shed_replication`` only releases non-overlapping holders and never
  tombstones, so the baseline replica set is inviolable.
* End to end, an adapted :class:`HyperMNetwork` answers the same queries
  with the same item ids and peer scores (1e-9) as a clean one.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import runtime
from repro.core.network import HyperMConfig, HyperMNetwork
from repro.core.results import ClusterRecord
from repro.core.scoring import level_scores
from repro.exceptions import ValidationError
from repro.obs.loadmap import build_loadmap
from repro.overlay.adapt import (
    AdaptConfig,
    AdaptationController,
)
from repro.overlay.can import CANNetwork
from repro.overlay.can.replication import boost_replication, shed_replication


def _record(peer: int, items: int = 10) -> ClusterRecord:
    return ClusterRecord(peer_id=peer, items=items, level_name="A")


def _publish(can, rng, n=30):
    """Insert ``n`` replicated spheres from the first node."""
    origin = can.node_ids[0]
    for i in range(n):
        can.insert(
            origin,
            rng.random(can.dimensionality),
            _record(i % 5),
            radius=float(rng.uniform(0.05, 0.25)),
        )


def _assert_sphere_coverage(overlay):
    """Theorem 4.1: zone-overlap implies membership, for every live row."""
    store = overlay.level_store
    spheres = [
        (row, store.key_of(row), store.radius_of(row))
        for row in store.live_rows()
    ]
    for node_id in overlay.node_ids:
        node = overlay.node(node_id)
        for row, key, radius in spheres:
            if node.intersects_sphere(key, radius):
                assert row in node.membership, (
                    f"node {node_id} zone overlaps row {row} but does "
                    f"not hold it"
                )


def _query_entry_ids(can, centers, eps=0.3):
    origin = can.node_ids[0]
    return [
        sorted(int(e) for e in can.range_query(origin, c, eps).entries.entry_ids)
        for c in centers
    ]


def _build(seed=0, n_peers=6, dim=16, adapt=None):
    config = HyperMConfig(levels_used=3, n_clusters=3)
    net = HyperMNetwork(dim, config, rng=seed)
    if adapt is not None:
        net.enable_adaptation(adapt)
    data_rng = np.random.default_rng(seed + 1)
    for __ in range(n_peers):
        net.add_peer(data_rng.random((20, dim)))
    net.publish_all()
    return net


class TestRebalanceZone:
    def test_preserves_tiling_coverage_and_integrity(self, small_can, rng):
        _publish(small_can, rng)
        node_id = max(
            small_can.node_ids, key=lambda n: len(small_can.node(n).membership)
        )
        target = small_can.rebalance_zone(node_id)
        assert target is not None and target != node_id
        assert small_can.total_zone_volume() == pytest.approx(1.0)
        for point in rng.random((50, 2)):
            small_can.owner_of(point)  # raises if zones stopped tiling
        _assert_sphere_coverage(small_can)
        small_can.level_store.verify_integrity()

    def test_query_results_unchanged(self, small_can, rng):
        _publish(small_can, rng)
        centers = rng.random((10, 2))
        before_ids = _query_entry_ids(small_can, centers)
        before_scores = [
            level_scores(
                small_can.range_query(small_can.node_ids[0], c, 0.3).entries,
                c, 0.3,
            )
            for c in centers
        ]
        small_can.rebalance_zone(small_can.node_ids[0])
        assert _query_entry_ids(small_can, centers) == before_ids
        after_scores = [
            level_scores(
                small_can.range_query(small_can.node_ids[0], c, 0.3).entries,
                c, 0.3,
            )
            for c in centers
        ]
        for before, after in zip(before_scores, after_scores, strict=True):
            assert set(before) == set(after)
            for peer, score in before.items():
                assert after[peer] == pytest.approx(score, rel=1e-9)

    def test_explicit_target_and_self_target_rejected(self, small_can, rng):
        _publish(small_can, rng)
        node_id = small_can.node_ids[0]
        target_id = next(iter(small_can.node(node_id).neighbors))
        assert small_can.rebalance_zone(node_id, target_id) == target_id
        with pytest.raises(ValidationError):
            small_can.rebalance_zone(node_id, node_id)

    def test_multi_zone_target_adopts_nearest_half(self, small_can, rng):
        _publish(small_can, rng)
        node_ids = small_can.node_ids
        target = node_ids[0]
        donors = [n for n in node_ids if target in small_can.node(n).neighbors]
        # Two handoffs leave the target owning several zones; a third
        # rebalance onto it must pick the half nearest *any* of them.
        for donor in donors[:2]:
            assert small_can.rebalance_zone(donor, target) == target
        assert len(small_can.node(target).zones) >= 2
        donor = next(
            n for n in small_can.node_ids
            if n != target and target in small_can.node(n).neighbors
        )
        assert small_can.rebalance_zone(donor, target) == target
        assert small_can.total_zone_volume() == pytest.approx(1.0)
        _assert_sphere_coverage(small_can)

    def test_isolated_node_returns_none(self):
        can = CANNetwork(2, rng=0)
        can.grow(1)
        assert can.rebalance_zone(can.node_ids[0]) is None


class TestReplicationRetuning:
    def _hot_row(self, can):
        store = can.level_store
        return max(
            (int(r) for r in store.live_rows() if store.radius_of(int(r)) > 0),
            key=lambda r: sum(
                1 for n in can.node_ids if r in can.node(n).membership
            ),
        )

    def test_boost_adds_only_new_holders(self, small_can, rng):
        _publish(small_can, rng)
        row = self._hot_row(small_can)
        holders = {
            n for n in small_can.node_ids
            if row in small_can.node(n).membership
        }
        added = boost_replication(small_can, row, 2)
        assert 0 < len(added) <= 2
        assert not set(added) & holders
        for node_id in added:
            assert row in small_can.node(node_id).membership
        small_can.level_store.verify_integrity()

    def test_boost_zero_extra_is_noop(self, small_can, rng):
        _publish(small_can, rng)
        assert boost_replication(small_can, self._hot_row(small_can), 0) == []

    def test_boost_does_not_change_query_results(self, small_can, rng):
        _publish(small_can, rng)
        centers = rng.random((10, 2))
        before = _query_entry_ids(small_can, centers)
        boost_replication(small_can, self._hot_row(small_can), 3)
        assert _query_entry_ids(small_can, centers) == before

    def test_shed_releases_exactly_the_boosted_extras(self, small_can, rng):
        _publish(small_can, rng)
        store = small_can.level_store
        row = self._hot_row(small_can)
        # Freshly replicated rows have zone-overlapping holders only.
        assert shed_replication(small_can, row) == []
        added = boost_replication(small_can, row, 2)
        n_live = store.n_live
        shed = shed_replication(small_can, row)
        assert set(shed) == set(added)
        assert store.n_live == n_live  # shedding never tombstones
        key, radius = store.key_of(row), store.radius_of(row)
        for node_id in small_can.node_ids:
            if small_can.node(node_id).intersects_sphere(key, radius):
                assert row in small_can.node(node_id).membership
        store.verify_integrity()


class TestControllerUnits:
    def test_config_validation(self):
        # 2.5 used to run an epoch every 5th query (float modulo), nan
        # never ran one, and True passed as 1.
        bad_values = (-1, 2.5, 12.0, float("nan"), float("inf"), True, "4")
        for bad in bad_values:
            with pytest.raises(ValidationError):
                AdaptConfig(epoch_queries=bad)
        assert AdaptConfig(epoch_queries=np.int64(4)).epoch_queries == 4
        assert AdaptConfig(epoch_queries=0).epoch_queries == 0

    def test_relay_plan_covers_every_peer_once(self):
        net = _build(seed=1, adapt=AdaptConfig())
        plan = net.adaptation.relay_plan([5, 1, 4, 2, 3])
        assert len(plan) == 2
        covered = [r for r, __ in plan] + [
            c for __, children in plan for c in children
        ]
        assert sorted(covered) == [1, 2, 3, 4, 5]

    def test_relay_plan_flat_when_small(self):
        net = _build(seed=1, adapt=AdaptConfig())
        assert net.adaptation.relay_plan([7, 3]) == [(7, ()), (3, ())]

    def test_response_dedup_bookkeeping(self):
        net = _build(seed=1, adapt=AdaptConfig())
        controller = net.adaptation
        assert controller.filter_new(3, 0, [10, 11, 12]) == [10, 11, 12]
        controller.mark_delivered(3, 0, [10, 11])
        assert controller.filter_new(3, 0, [10, 11, 12]) == [12]
        assert controller.filter_new(3, 1, [10, 11]) == [10, 11]  # per origin

    def test_quality_signals_default_clean(self):
        net = _build(seed=1, adapt=AdaptConfig())
        controller = net.adaptation
        assert controller.peer_quality(0) == 1.0
        assert controller.node_penalty(10**6) == 0.0

    def test_epoch_cadence(self):
        net = _build(seed=1, adapt=AdaptConfig(epoch_queries=3))
        controller = net.adaptation
        assert [controller.note_query() for __ in range(6)] == [
            False, False, True, False, False, True,
        ]
        assert controller.epochs == 2
        manual = AdaptationController(net, AdaptConfig(epoch_queries=0))
        assert not any(manual.note_query() for __ in range(10))
        assert manual.epochs == 0

    def test_first_epoch_is_baseline_only(self):
        net = _build(seed=2, adapt=AdaptConfig(epoch_queries=0))
        controller = net.adaptation
        rng = np.random.default_rng(0)
        for __ in range(4):
            net.range_query(rng.random(net.dimensionality), 0.6)
        first = controller.run_epoch()
        assert [d for d in first if d.action == "boost"] == []
        for __ in range(4):
            net.range_query(rng.random(net.dimensionality), 0.6)
        second = controller.run_epoch()
        boosts = [d for d in second if d.action == "boost"]
        assert boosts  # heat grew between epochs
        for decision in boosts:
            assert decision.targets
            assert decision.epoch == 1
        snapshot = controller.snapshot()
        assert snapshot["epochs"] == 2
        assert snapshot["decisions"]["boost"] == len(
            [d for d in controller.decisions if d.action == "boost"]
        )

    def test_ambient_scope_enables_adaptation(self):
        assert runtime.current.adapt is None
        with runtime.run_context(adapt=AdaptConfig(epoch_queries=5)):
            net = _build(seed=1)
            assert net.adaptation is not None
            assert net.adaptation.config.epoch_queries == 5
        assert runtime.current.adapt is None
        clean = _build(seed=1)
        assert clean.adaptation is None

    def test_stats_exposes_adaptation_snapshot(self):
        net = _build(seed=1, adapt=AdaptConfig())
        assert net.stats()["adaptation"]["epochs"] == 0
        assert "adaptation" not in _build(seed=1).stats()


class TestAdaptedQueryParity:
    def _run(self, adapt):
        net = _build(seed=9, n_peers=6, adapt=adapt)
        rng = np.random.default_rng(3)
        out = []
        for __ in range(16):
            result = net.range_query(rng.random(net.dimensionality), 0.6)
            out.append((sorted(result.item_ids), result.peer_scores))
        return net, out

    def test_adapted_answers_match_clean(self):
        clean_net, clean = self._run(None)
        adapted_net, adapted = self._run(AdaptConfig(epoch_queries=4))
        controller = adapted_net.adaptation
        assert controller.epochs == 4
        assert controller.decisions  # the loop actually acted
        for (c_items, c_scores), (a_items, a_scores) in zip(
            clean, adapted, strict=True
        ):
            assert a_items == c_items  # Theorem 4.1 set equality
            assert set(a_scores) == set(c_scores)
            for peer, score in c_scores.items():
                assert a_scores[peer] == pytest.approx(score, rel=1e-9)
        for overlay in adapted_net.overlays.values():
            _assert_sphere_coverage(overlay)
            overlay.level_store.verify_integrity()

    def test_loadmap_reports_sphere_heat(self):
        net, __ = self._run(AdaptConfig(epoch_queries=4))
        loadmap = build_loadmap(net)
        assert set(loadmap["sphere_heat"]) == {
            str(level) for level in net.levels
        }
        for level_heat in loadmap["sphere_heat"].values():
            assert level_heat["total"] > 0
            assert level_heat["top"]
            for entry in level_heat["top"]:
                assert {"entry_id", "heat", "peer"} <= set(entry)
