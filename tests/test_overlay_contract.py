"""The Overlay contract, verified uniformly across all three substrates.

Hyper-M only relies on the :class:`repro.overlay.base.Overlay` interface;
these parametrised tests pin the behaviour every substrate must share, so
a new overlay implementation can be validated by adding one line.
``TestCapabilityPlanes`` pins which backends expose which plane, and
``TestDeltaPublishParity`` pins the maintenance plane's core guarantee —
delta repair leaves the index bit-equivalent to from-scratch publication
— on *every* registered backend.
"""

import numpy as np
import pytest

from repro.exceptions import StaleCandidateError, ValidationError
from repro.index import CandidateSet
from repro.net.messages import MessageKind
from repro.overlay import BatonNetwork, CANNetwork, VBITree
from repro.overlay.base import Overlay
from tests.rows import held_values

FACTORIES = [CANNetwork, BatonNetwork, VBITree]


@pytest.fixture(params=FACTORIES, ids=lambda f: f.__name__)
def overlay(request):
    net = request.param(2, rng=42)
    net.grow(12)
    return net


class TestContract:
    def test_is_overlay(self, overlay):
        assert isinstance(overlay, Overlay)
        assert overlay.dimensionality == 2
        assert len(overlay.node_ids) == 12

    def test_insert_returns_receipt(self, overlay):
        receipt = overlay.insert(overlay.node_ids[0], [0.4, 0.6], "v")
        assert receipt.owner in overlay.node_ids
        assert receipt.routing_hops >= 0
        assert receipt.total_hops == receipt.routing_hops + receipt.replicas

    def test_lookup_roundtrip(self, overlay):
        overlay.insert(overlay.node_ids[1], [0.25, 0.75], "payload")
        receipt = overlay.lookup(overlay.node_ids[5], [0.25, 0.75])
        assert "payload" in receipt.entries.values()

    def test_lookup_from_every_node(self, overlay):
        overlay.insert(overlay.node_ids[0], [0.5, 0.5], "x")
        for start in overlay.node_ids:
            receipt = overlay.lookup(start, [0.5, 0.5])
            assert "x" in receipt.entries.values(), start

    def test_range_query_completeness(self, overlay, rng):
        points = rng.random((50, 2))
        for i, p in enumerate(points):
            overlay.insert(overlay.node_ids[i % 12], p, i)
        center = np.array([0.5, 0.5])
        radius = 0.3
        receipt = overlay.range_query(overlay.node_ids[0], center, radius)
        got = {v for v in receipt.entries.values() if isinstance(v, int)}
        want = {
            i
            for i, p in enumerate(points)
            if np.linalg.norm(p - center) <= radius - 1e-9
        }
        assert want <= got

    def test_sphere_entries_found_at_offset_queries(self, overlay):
        overlay.insert(
            overlay.node_ids[2], [0.5, 0.5], "sphere", radius=0.2
        )
        # Query near the sphere's edge, away from its centre.
        receipt = overlay.range_query(
            overlay.node_ids[7], np.array([0.66, 0.5]), 0.05
        )
        assert "sphere" in receipt.entries.values()

    def test_zero_radius_range_query(self, overlay):
        overlay.insert(overlay.node_ids[3], [0.3, 0.3], "pt")
        receipt = overlay.range_query(
            overlay.node_ids[0], np.array([0.3, 0.3]), 0.0
        )
        assert "pt" in receipt.entries.values()

    def test_traffic_is_charged(self, overlay):
        before = overlay.fabric.metrics.total_messages
        overlay.insert(overlay.node_ids[0], [0.9, 0.1], "x")
        overlay.range_query(overlay.node_ids[0], np.array([0.2, 0.2]), 0.2)
        assert overlay.fabric.metrics.total_messages >= before

    def test_insert_operation_metrics(self, overlay):
        overlay.insert(overlay.node_ids[0], [0.7, 0.7], "x")
        ops = overlay.fabric.metrics.kind(MessageKind.INSERT).per_op_hops
        assert ops.count >= 1

    def test_loads_accounting(self, overlay, rng):
        for i in range(20):
            overlay.insert(overlay.node_ids[i % 12], rng.random(2), i)
        loads = overlay.loads()
        assert set(loads) == set(overlay.node_ids)
        assert sum(loads.values()) >= 20

    def test_leave_preserves_entries(self, overlay, rng):
        points = rng.random((30, 2))
        for i, p in enumerate(points):
            overlay.insert(overlay.node_ids[i % 12], p, i)
        for __ in range(4):
            overlay.leave(overlay.node_ids[-1])
        held = set()
        for nid in overlay.node_ids:
            for value in held_values(overlay, nid):
                if isinstance(value, int):
                    held.add(value)
        assert held == set(range(30))

    def test_join_after_leave(self, overlay):
        overlay.leave(overlay.node_ids[0])
        new_id = overlay.join()
        assert new_id in overlay.node_ids
        receipt = overlay.insert(new_id, [0.1, 0.9], "post-churn")
        assert receipt.owner in overlay.node_ids

    def test_out_of_cube_insert_rejected(self, overlay):
        with pytest.raises(ValidationError):
            overlay.insert(overlay.node_ids[0], [1.4, 0.2], "x")

    def test_out_of_cube_lookup_rejected_before_any_message(self, overlay):
        # One rule on every backend: a bad key is a bad argument, caught
        # before the walk (not a clipped answer, not a "broken graph").
        before = overlay.fabric.metrics.total_messages
        with pytest.raises(ValidationError, match="unit cube"):
            overlay.lookup(overlay.node_ids[0], [1.05, 0.5])
        assert overlay.fabric.metrics.total_messages == before

    def test_receipts_carry_candidate_sets(self, overlay):
        overlay.insert(overlay.node_ids[0], [0.4, 0.4], "s", radius=0.1)
        origin = overlay.node_ids[3]
        for receipt in (
            overlay.lookup(origin, [0.4, 0.4]),
            overlay.range_query(origin, np.array([0.4, 0.4]), 0.2),
        ):
            assert isinstance(receipt.entries, CandidateSet)
            assert receipt.entries.store is overlay.level_store

    def test_lookup_matches_brute_force_scan(self, overlay, rng):
        for i, p in enumerate(rng.random((40, 2))):
            overlay.insert(
                overlay.node_ids[i % 12], p, i,
                radius=float(rng.uniform(0.0, 0.3)),
            )
        store = overlay.level_store
        for key in rng.random((10, 2)):
            receipt = overlay.lookup(overlay.node_ids[0], key)
            containing = [
                store.value_of(row)
                for row in store.live_rows()
                if np.linalg.norm(store.key_of(row) - key)
                <= store.radius_of(row)
            ]
            assert sorted(receipt.entries.values()) == sorted(containing)

    def test_lookup_result_goes_stale_on_update(self, overlay):
        overlay.insert(overlay.node_ids[0], [0.4, 0.4], "s", radius=0.1)
        store = overlay.level_store
        found = overlay.lookup(overlay.node_ids[3], [0.4, 0.4]).entries
        assert found.values() == ["s"]
        store.update_entry(int(found.entry_ids[0]), radius=0.2)
        with pytest.raises(StaleCandidateError):
            found.values()

    def test_member_accessors(self, overlay):
        assert len(overlay) == len(overlay.node_ids) == 12
        assert overlay.loads() == dict.fromkeys(overlay.node_ids, 0)
        with pytest.raises(ValidationError, match="n_nodes"):
            overlay.grow(0)
        with pytest.raises(ValidationError, match="unknown"):
            overlay.node(10_000)


class TestCapabilityPlanes:
    """Which backend exposes which plane — and metered degradation."""

    def test_every_backend_has_a_maintenance_plane(self, overlay):
        # In-place maintenance is part of the Overlay contract; every
        # backend gets it from the shared store-backed implementation.
        from repro.overlay.maintenance import StoreMaintenancePlane

        assert isinstance(overlay, StoreMaintenancePlane)
        assert overlay.patch_entries(overlay.node_ids[0], []) == (0, 0)
        assert overlay.retract_entries(overlay.node_ids[0], []) == 0

    def test_adaptation_plane_presence(self, overlay):
        from repro.overlay.adapt import adaptation_plane

        # Adaptation needs a zone partition, and only CAN has one.
        expected = type(overlay) is CANNetwork
        assert overlay.zone_geometry is expected
        plane = adaptation_plane(overlay)
        assert (plane is overlay) is expected

    def test_missing_plane_is_metered(self):
        from repro.obs import registry as obs_registry
        from repro.obs.registry import MetricsRegistry
        from repro.overlay.adapt import adaptation_plane
        from repro.runtime import run_context

        baton = BatonNetwork(2, rng=0)
        baton.grow(4)
        with run_context(metrics=MetricsRegistry()):
            assert adaptation_plane(baton) is None
            metrics = obs_registry.metrics()
            assert metrics.counter(
                "overlay.plane.adaptation.missing"
            ).value == 1
            assert metrics.counter(
                "overlay.plane.adaptation.missing.BatonNetwork"
            ).value == 1

    def test_load_snapshot_covers_every_node(self, overlay):
        from repro.overlay.adapt import adaptation_plane

        plane = adaptation_plane(overlay)
        if plane is None:
            pytest.skip("backend has no adaptation plane")
        snapshot = plane.load_snapshot()
        assert set(snapshot) == set(overlay.node_ids)


# -- delta-publish parity on every registered backend -------------------------

PARITY_DIM = 8
PARITY_CONFIG = dict(levels_used=2, n_clusters=3)
PARITY_PEERS = 3
PARITY_ITEMS = 12


def _parity_network(factory, rng_seed: int):
    from repro.core.network import HyperMConfig, HyperMNetwork

    net = HyperMNetwork(
        PARITY_DIM, HyperMConfig(**PARITY_CONFIG),
        rng=rng_seed, overlay_factory=factory,
    )
    data_rng = np.random.default_rng(rng_seed)
    for p in range(PARITY_PEERS):
        net.add_peer(
            data_rng.random((PARITY_ITEMS, PARITY_DIM)),
            np.arange(p * PARITY_ITEMS, (p + 1) * PARITY_ITEMS),
        )
    net.publish_all()
    return net


@pytest.mark.parametrize(
    "factory", FACTORIES, ids=lambda f: f.__name__
)
class TestDeltaPublishParity:
    """Delta repair ≡ from-scratch publication, on every backend.

    The maintenance plane's in-place patches/retractions must leave the
    overlay state bit-equivalent (1e-9 Eq. 1 score parity) to publishing
    the same summaries from scratch, and Theorem 4.1's no-false-dismissal
    guarantee must survive the churn.
    """

    def test_delta_matches_scratch_publication(self, factory):
        from repro.core.baselines import CentralizedIndex
        from repro.core.network import HyperMConfig, HyperMNetwork
        from repro.core.queries import index_phase

        net = _parity_network(factory, rng_seed=3)
        mut_rng = np.random.default_rng(11)
        next_id = 10_000
        for peer_id in sorted(net.peers):
            peer = net.peers[peer_id]
            count = int(mut_rng.integers(2, 5))
            peer.add_items(
                mut_rng.random((count, PARITY_DIM)),
                np.arange(next_id, next_id + count),
            )
            next_id += count
            victims = mut_rng.choice(
                peer.item_ids[:PARITY_ITEMS], size=2, replace=False
            )
            peer.remove_items(victims)
            net.republish_peer(peer_id)

        # Twin: the *same* summaries published from scratch on the same
        # backend. Its overlay state is what delta repair claims to have
        # maintained in place.
        rebuilt = HyperMNetwork(
            PARITY_DIM, HyperMConfig(**PARITY_CONFIG),
            rng=4, overlay_factory=factory,
        )
        for peer_id in sorted(net.peers):
            peer = net.peers[peer_id]
            rebuilt.add_peer(peer.data.copy(), peer.item_ids.copy())
        for peer_id in sorted(net.peers):
            rebuilt.publish_peer(
                peer_id, summary=net.peers[peer_id].summary
            )

        truth_index = CentralizedIndex.from_network(net)
        query_rng = np.random.default_rng(17)
        picks = query_rng.integers(0, truth_index.data.shape[0], size=3)
        origin = next(iter(net.peers))
        for query in truth_index.data[picks]:
            distances = np.linalg.norm(truth_index.data - query, axis=1)
            radius = float(np.quantile(distances, 0.2))

            ours, __ = index_phase(net, query, radius, origin_peer=origin)
            reference, __ = index_phase(
                rebuilt, query, radius, origin_peer=origin
            )
            assert set(ours) == set(reference)
            for peer_id, expected in reference.items():
                assert abs(ours[peer_id] - expected) <= 1e-9 * max(
                    1.0, abs(expected)
                ), f"peer {peer_id} score drifted on {factory.__name__}"

            truth = set(truth_index.range_search(query, radius))
            got = net.range_query(query, radius, max_peers=None)
            assert set(got.item_ids) == truth

        for overlay in net.overlays.values():
            overlay.level_store.verify_integrity()


# -- insert_many is n inserts ---------------------------------------------------


def _overlay_state(overlay) -> dict:
    """Everything an insert writes: store rows, memberships, the ledger."""
    store = overlay.level_store
    fabric = overlay.fabric
    return {
        "rows": [
            (
                store.entry_id_of(row), store.key_of(row).tobytes(),
                store.radius_of(row), store.value_of(row),
            )
            for row in store.live_rows()
        ],
        "generation": store.generation,
        "next_entry_id": store.next_entry_id,
        "memberships": {
            node_id: overlay.node(node_id).membership.rows().tolist()
            for node_id in overlay.node_ids
        },
        "by_kind": {
            kind: vars(row).copy() for kind, row in fabric.metrics.by_kind.items()
        },
        "per_node": [
            (node_id, row.to_record())
            for node_id, row in fabric.load.per_node.items()
        ],
        "energy": fabric.energy.total,
    }


@pytest.mark.parametrize("factory", FACTORIES, ids=lambda f: f.__name__)
class TestInsertManyParity:
    """One ``insert_many`` call leaves exactly what ``n`` inserts leave."""

    def _twins(self, factory):
        twins = []
        for __ in range(2):
            net = factory(2, rng=42)
            net.grow(12)
            twins.append(net)
        return twins

    def test_batch_equals_one_insert_per_row(self, factory, rng):
        batched, single = self._twins(factory)
        keys = rng.random((24, 2))
        keys[:3] = [[0.0, 0.0], [1.0, 1.0], [1.0, 0.25]]  # seam and faces
        radii = np.where(rng.random(24) < 0.3, 0.0, rng.uniform(0, 0.3, 24))
        values = [f"v{i}" for i in range(24)]
        origin = batched.node_ids[4]
        receipts = batched.insert_many(origin, keys, values, radii)
        expected = [
            single.insert(origin, key, value, radius=radius)
            for key, value, radius in zip(keys, values, radii)
        ]
        assert receipts == expected
        assert _overlay_state(batched) == _overlay_state(single)

    def test_a_bad_row_refuses_the_whole_batch(self, factory, rng):
        overlay, __ = self._twins(factory)
        before = _overlay_state(overlay)
        keys = rng.random((4, 2))
        keys[2] = [0.5, 1.2]
        with pytest.raises(ValidationError, match="unit cube"):
            overlay.insert_many(overlay.node_ids[0], keys, list("abcd"), [0.1] * 4)
        with pytest.raises(ValidationError, match="radius"):
            overlay.insert_many(
                overlay.node_ids[0], rng.random((2, 2)), ["a", "b"], [0.1, -1.0]
            )
        with pytest.raises(ValidationError, match="align"):
            overlay.insert_many(overlay.node_ids[0], rng.random((2, 2)), ["a"], [0.1])
        assert _overlay_state(overlay) == before
