"""Bulk CAN construction: the analytic grid equals the protocol's limit.

:mod:`repro.overlay.can.bulk` materialises the power-of-two grid that a
uniform midpoint split sequence converges to, instead of routing every
join. These tests pin the equivalences that make the shortcut safe:

* grid adjacency reproduces exactly what the O(n²) geometric scan
  (:meth:`CANNetwork._rebuild_all_neighbors`) would compute;
* :meth:`GridPlan.owner_nodes` agrees with greedy-routing ownership
  (:meth:`CANNetwork.owner_of`) for every key, boundaries included;
* :func:`bulk_publish` leaves the store, memberships, and the fabric's
  metrics/energy/load ledgers exactly where the per-frame path would;
* a grid's nodes are built by the first read of its topology, never by
  construction or publication, and publishing before that read ends
  exactly where publishing after it does.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import DimensionalityError, ValidationError
from repro.faults import FaultPlan
from repro.index import LevelStore
from repro.net.messages import MessageKind, vector_message_size
from repro.net import network as fabric_module
from repro.net.network import Network
from repro.overlay.can import (
    BulkPublishReport,
    CANNode,
    GridPlan,
    build_grid_can,
    bulk_publish,
    grid_shape,
)
from repro.overlay.can.zone import Zone
from repro.runtime import run_context
from tests import can_reference as reference
from tests.ledger_oracle import kind_counts, load_records

GRIDS = [(1, 8), (2, 16), (2, 8), (3, 32), (4, 16), (2, 1), (1, 2), (16, 64)]


class TestGridShape:
    def test_round_robin_split_order(self):
        assert grid_shape(2, 16) == (4, 4)
        assert grid_shape(2, 8) == (4, 2)
        assert grid_shape(3, 32) == (4, 4, 2)
        assert grid_shape(1, 8) == (8,)

    def test_rounds_up_to_a_power_of_two(self):
        assert grid_shape(2, 9) == (4, 4)
        assert grid_shape(2, 5) == (4, 2)

    def test_single_node_grid(self):
        assert grid_shape(3, 1) == (1, 1, 1)

    def test_validation(self):
        with pytest.raises(ValidationError):
            grid_shape(0, 4)
        with pytest.raises(ValidationError):
            grid_shape(2, 0)

    @pytest.mark.parametrize("dim,n", [(2, 9.5), (2, 8.0), (2, True)])
    def test_refuses_a_non_integral_count(self, dim, n):
        with pytest.raises(ValidationError, match="n_nodes"):
            grid_shape(dim, n)

    @pytest.mark.parametrize("dim", [2.5, 2.0, "2"])
    def test_refuses_a_non_integral_dimensionality(self, dim):
        with pytest.raises(ValidationError, match="dimensionality"):
            grid_shape(dim, 8)

    def test_numpy_integers_are_whole_numbers(self):
        assert grid_shape(np.int64(2), np.int32(16)) == (4, 4)


class TestBuildGridCan:
    @pytest.mark.parametrize(
        "dim,n", [(1, 8), (2, 16), (2, 8), (3, 32), (4, 16), (2, 1), (1, 2)]
    )
    def test_adjacency_matches_geometric_scan(self, dim, n):
        can, __ = build_grid_can(dim, n)
        built = {
            node_id: set(can.node(node_id).neighbors)
            for node_id in can.node_ids
        }
        can._rebuild_all_neighbors()
        geometric = {
            node_id: set(can.node(node_id).neighbors)
            for node_id in can.node_ids
        }
        assert built == geometric

    def test_zones_tile_the_cube(self):
        can, plan = build_grid_can(3, 32)
        assert len(can) == plan.n_cells
        assert can.total_zone_volume() == pytest.approx(1.0, abs=1e-12)

    def test_owner_nodes_matches_greedy_ownership(self):
        can, plan = build_grid_can(2, 16, rng=0)
        rng = np.random.default_rng(4)
        keys = rng.random((200, 2))
        analytic = plan.owner_nodes(keys)
        routed = np.array([can.owner_of(key) for key in keys])
        np.testing.assert_array_equal(analytic, routed)

    def test_outer_face_clamps_into_the_last_cell(self):
        can, plan = build_grid_can(2, 16)
        corner = np.ones((1, 2))
        owner = int(plan.owner_nodes(corner)[0])
        assert owner == can.owner_of(corner[0])

    def test_node_id_offset_respected(self):
        can, plan = build_grid_can(2, 4, node_id_offset=5000)
        assert min(can.node_ids) == 5000
        assert plan.node_id_offset == 5000
        assert can._next_id == 5000 + plan.n_cells

    def test_owner_nodes_rejects_wrong_shape(self):
        plan = GridPlan(counts=(4, 4), node_id_offset=0)
        with pytest.raises(ValidationError, match="shape"):
            plan.owner_nodes(np.zeros((3, 3)))

    @pytest.mark.parametrize("bad", [[np.nan, 0.5], [0.5, -np.inf]])
    def test_owner_nodes_refuses_non_finite_keys(self, bad):
        plan = GridPlan(counts=(4, 4), node_id_offset=0)
        with pytest.raises(ValidationError, match="non-finite"):
            plan.owner_nodes(np.array([[0.2, 0.2], bad]))

    @pytest.mark.parametrize("bad", [[2.0, -1.0], [0.5, 1.0 + 1e-6]])
    def test_owner_nodes_refuses_keys_outside_the_cube(self, bad):
        plan = GridPlan(counts=(4, 4), node_id_offset=0)
        with pytest.raises(ValidationError, match="unit cube"):
            plan.owner_nodes(np.array([bad]))

    def test_refused_build_registers_no_id(self):
        fabric = Network()
        build_grid_can(2, 16, fabric=fabric, node_id_offset=100)
        with pytest.raises(ValidationError, match="node id 100 already"):
            build_grid_can(2, 16, fabric=fabric, node_id_offset=92)
        assert fabric.snapshot()["nodes"] == 16
        can, __ = build_grid_can(2, 8, fabric=fabric, node_id_offset=92)
        assert can.node_ids == list(range(92, 100))


class TestGridBits:
    """The grid's exact state: box bits, neighbour order, shared snapshots."""

    @pytest.mark.parametrize("dim,n", GRIDS)
    def test_zone_bits_are_the_closed_form(self, dim, n):
        can, plan = build_grid_can(dim, n, node_id_offset=700)
        counts = np.asarray(plan.counts, dtype=np.float64)
        for cell in range(plan.n_cells):
            index = np.asarray(np.unravel_index(cell, plan.counts))
            zone = can.node(700 + cell).zone
            assert zone.lows.tolist() == (index / counts).tolist()
            assert zone.highs.tolist() == ((index + 1) / counts).tolist()
            assert zone.lows.dtype == zone.highs.dtype == np.float64
            with pytest.raises(ValueError, match="read-only"):
                zone.lows[0] = 0.0
            with pytest.raises(ValueError, match="read-only"):
                zone.highs[0] = 1.0

    @pytest.mark.parametrize("dim,n", GRIDS)
    def test_neighbor_insertion_order(self, dim, n):
        can, plan = build_grid_can(dim, n, node_id_offset=40)
        expected = reference.grid_neighbor_order(plan.counts, 40)
        assert can.node_ids == list(expected)
        for node_id, order in expected.items():
            assert list(can.node(node_id).neighbors) == order

    @pytest.mark.parametrize("dim,n", GRIDS)
    def test_snapshots_share_the_owner_zone_objects(self, dim, n):
        can, __ = build_grid_can(dim, n)
        for node_id in can.node_ids:
            for other, snapshot in can.node(node_id).neighbors.items():
                zones = can.node(other).zones
                assert isinstance(snapshot, tuple)
                assert len(snapshot) == len(zones) == 1
                assert snapshot[0] is zones[0]


class TestBulkPublishTwins:
    """``bulk_publish`` against the per-row / per-frame paths it batches."""

    N = 90

    def _inputs(self, dim=2, seed=11):
        rng = np.random.default_rng(seed)
        keys = rng.random((self.N, dim))
        keys[:6] = keys[6:12]  # several spheres on one key, one owner
        keys[12] = 1.0  # the outer corner clamps into the last cell
        radii = 0.05 * rng.random(self.N)
        peer_ids = np.arange(self.N, dtype=np.int64) % 7
        return keys, radii, peer_ids

    def test_memberships_match_per_owner_add_many(self):
        keys, radii, peer_ids = self._inputs()
        can, plan = build_grid_can(2, 16, node_id_offset=300)
        bulk_publish(can, plan, keys, radii, peer_ids=peer_ids)

        twin, twin_plan = build_grid_can(2, 16, node_id_offset=300)
        store = twin.level_store
        rows = store.bulk_add(keys, radii, peer_ids=peer_ids)
        owners = twin_plan.owner_nodes(keys)
        for owner in np.unique(owners).tolist():
            twin.node(owner).membership.add_many(rows[owners == owner])

        for node_id in twin.node_ids:
            np.testing.assert_array_equal(
                can.node(node_id).membership.rows(),
                twin.node(node_id).membership.rows(),
            )
        assert can.level_store.health() == store.health()
        assert can.level_store.generation == store.generation
        can.level_store.verify_integrity()

    def test_ledgers_match_a_per_frame_transmit_loop(self):
        keys, radii, peer_ids = self._inputs()
        can, plan = build_grid_can(2, 16, node_id_offset=300)
        origins = 300 + (np.arange(self.N, dtype=np.int64) * 5) % plan.n_cells
        report = bulk_publish(
            can, plan, keys, radii, peer_ids=peer_ids, origins=origins
        )

        twin, twin_plan = build_grid_can(2, 16, node_id_offset=300)
        size = vector_message_size(2, scalars=2)
        owners = twin_plan.owner_nodes(keys)
        for origin, owner in zip(origins.tolist(), owners.tolist()):
            twin.fabric.transmit(origin, owner, MessageKind.INSERT, size)
        assert report.messages == self.N

        ours, theirs = can.fabric.load.per_node, twin.fabric.load.per_node
        assert set(ours) == set(theirs)
        for node_id, slot in theirs.items():
            assert ours[node_id].to_record() == slot.to_record()
        ours, theirs = can.fabric.energy.per_node, twin.fabric.energy.per_node
        assert set(ours) == set(theirs)
        for node_id, drain in theirs.items():
            assert ours[node_id] == pytest.approx(drain, rel=1e-9)
        assert can.fabric.energy.total == pytest.approx(
            twin.fabric.energy.total, rel=1e-9
        )
        insert = can.fabric.metrics.kind(MessageKind.INSERT)
        twin_insert = twin.fabric.metrics.kind(MessageKind.INSERT)
        assert (insert.messages, insert.bytes) == (
            twin_insert.messages, twin_insert.bytes
        )


class TestBulkPublish:
    def _publish(self, n=60, dim=2, seed=7, **kwargs):
        rng = np.random.default_rng(seed)
        can, plan = build_grid_can(dim, 16)
        keys = rng.random((n, dim))
        radii = 0.05 * rng.random(n)
        peer_ids = np.arange(n, dtype=np.int64) % 5
        report = bulk_publish(
            can, plan, keys, radii, peer_ids=peer_ids, **kwargs
        )
        return can, plan, keys, radii, report

    def test_report_counts(self):
        can, plan, keys, __, report = self._publish()
        assert report.spheres == keys.shape[0]
        assert report.messages == keys.shape[0]
        owners = plan.owner_nodes(keys)
        assert report.nodes_touched == np.unique(owners).size
        size = vector_message_size(can.dimensionality, scalars=2)
        assert report.bytes_sent == size * keys.shape[0]

    def test_rows_land_at_their_owners(self):
        can, plan, keys, __, __ = self._publish()
        owners = plan.owner_nodes(keys)
        store = can.level_store
        assert store.n_rows == keys.shape[0]
        for node_id in np.unique(owners):
            expected = int((owners == node_id).sum())
            assert len(can.node(int(node_id)).membership) == expected

    def test_mask_sees_every_published_sphere(self):
        can, plan, keys, radii, __ = self._publish()
        mask = can.level_store.intersection_mask(keys[0], 1.5)
        # Radius 1.5 > any torus distance + sphere radius: all live rows.
        assert int(mask.sum()) == keys.shape[0]

    def test_fabric_accounting_matches_per_frame_totals(self):
        can, plan, keys, __, report = self._publish()
        size = vector_message_size(can.dimensionality, scalars=2)
        insert = can.fabric.metrics.kind(MessageKind.INSERT)
        assert insert.messages == keys.shape[0]
        assert insert.bytes == size * keys.shape[0]
        # Energy: every frame charges one tx + one rx of `size` bytes.
        model = can.fabric.energy.model
        expected = keys.shape[0] * model.hop_cost(size)
        assert can.fabric.energy.total == pytest.approx(expected)

    def test_charge_false_skips_the_fabric(self):
        can, __, keys, __, report = self._publish(charge=False)
        assert report.messages == 0
        assert report.bytes_sent == 0
        assert can.fabric.metrics.total_messages == 0
        assert can.level_store.n_rows == keys.shape[0]

    def test_origins_attribute_senders(self):
        rng = np.random.default_rng(3)
        can, plan = build_grid_can(2, 4)
        keys = rng.random((10, 2))
        origins = np.full(10, can.node_ids[0], dtype=np.int64)
        bulk_publish(can, plan, keys, 0.05 * rng.random(10), origins=origins)
        load = can.fabric.load.per_node[can.node_ids[0]]
        assert load.msgs_out == 10

    def test_bulk_transmit_rejects_an_active_fault_plan(self):
        rng = np.random.default_rng(3)
        with run_context(fault_plan=FaultPlan(loss=0.2, seed=1)):
            can, plan = build_grid_can(2, 4)
            keys = rng.random((5, 2))
            with pytest.raises(ValidationError, match="clean-fabric"):
                bulk_publish(can, plan, keys, 0.05 * rng.random(5))

    def test_bulk_transmit_allows_a_null_fault_plan(self):
        rng = np.random.default_rng(3)
        with run_context(fault_plan=FaultPlan(loss=0.0, seed=1)):
            can, plan = build_grid_can(2, 4)
            keys = rng.random((5, 2))
            report = bulk_publish(can, plan, keys, 0.05 * rng.random(5))
        assert report.messages == 5

    def test_transmit_bulk_validates_alignment(self):
        fabric = Network()
        with pytest.raises(ValidationError, match="align"):
            fabric.transmit_bulk(
                MessageKind.INSERT, np.array([1, 2]), np.array([1]), 8
            )
        assert fabric.transmit_bulk(
            MessageKind.INSERT, np.array([], dtype=np.int64),
            np.array([], dtype=np.int64), 8,
        ) == 0


class TestBulkPublishRefusesBeforeMutating:
    """A refused batch leaves the store, memberships and ledgers as found."""

    N = 5

    def _grid(self, n=4, **kwargs):
        can, plan = build_grid_can(2, n, **kwargs)
        rng = np.random.default_rng(3)
        return can, plan, rng.random((self.N, 2)), 0.05 * rng.random(self.N)

    def _assert_untouched(self, can):
        store = can.level_store
        assert store.n_rows == 0
        assert store.generation == 0
        assert all(
            len(can.node(node_id).membership) == 0 for node_id in can.node_ids
        )
        fabric = can.fabric
        assert fabric.metrics.total_messages == 0
        assert fabric.load.per_node == {}
        assert fabric.energy.per_node == {}
        assert fabric.energy.total == 0.0

    def test_misaligned_origins(self):
        can, plan, keys, radii = self._grid()
        with pytest.raises(ValidationError, match="one node per sphere"):
            bulk_publish(can, plan, keys, radii, origins=np.array([0, 1]))
        self._assert_untouched(can)

    def test_active_fault_plan(self):
        with run_context(fault_plan=FaultPlan(loss=0.2, seed=1)):
            can, plan, keys, radii = self._grid()
            with pytest.raises(ValidationError, match="clean-fabric"):
                bulk_publish(can, plan, keys, radii)
        self._assert_untouched(can)

    def test_origins_that_are_not_on_the_fabric(self):
        can, plan, keys, radii = self._grid(node_id_offset=50)
        origins = 50 + np.arange(self.N)  # a 4-cell grid: 54 is nobody
        with pytest.raises(ValidationError, match="unknown source node 54"):
            bulk_publish(can, plan, keys, radii, origins=origins)
        self._assert_untouched(can)
        # Uncharged, the batch still names a sender nobody registered.
        with pytest.raises(ValidationError, match="unknown source node 54"):
            bulk_publish(can, plan, keys, radii, origins=origins, charge=False)
        self._assert_untouched(can)

    @pytest.mark.parametrize("bad", [
        [np.nan, 0.5], [np.inf, 0.5], [1.7, -0.2], [0.5, 1.0 + 1e-6],
    ])
    def test_keys_routed_insert_would_refuse(self, bad):
        can, plan, __, __ = self._grid()
        with pytest.raises(ValidationError):
            can.insert(can.node_ids[0], np.asarray(bad), None)
        with pytest.raises(ValidationError):
            bulk_publish(can, plan, np.array([[0.2, 0.2], bad]), 0.01)
        self._assert_untouched(can)

    def test_keys_of_the_wrong_shape(self):
        can, plan, keys, radii = self._grid()
        with pytest.raises(DimensionalityError):
            bulk_publish(can, plan, np.zeros((self.N, 3)), radii)
        with pytest.raises(ValidationError, match="2-D"):
            bulk_publish(can, plan, keys[0], radii[0])
        self._assert_untouched(can)

    def test_columns_the_store_refuses(self):
        can, plan, keys, radii = self._grid()
        with pytest.raises(ValidationError, match="radii"):
            bulk_publish(can, plan, keys, -radii - 0.01)
        with pytest.raises(ValidationError, match="values"):
            bulk_publish(can, plan, keys, radii, values=[None])
        self._assert_untouched(can)

    def test_a_plan_from_another_grid(self):
        can, __, keys, radii = self._grid()
        __, other = build_grid_can(2, 64)
        with pytest.raises(ValidationError, match="unknown CANNetwork node"):
            bulk_publish(can, other, np.full((1, 2), 0.99), 0.01)
        self._assert_untouched(can)

    def test_an_empty_batch_publishes_nothing(self):
        can, plan, keys, radii = self._grid()
        for origins in (None, np.empty(0, dtype=np.int64)):
            report = bulk_publish(
                can, plan, np.empty((0, 2)), np.empty(0), origins=origins
            )
            assert report == BulkPublishReport(0, 0, 0, 0)
        self._assert_untouched(can)
        assert can.fabric.metrics.kind(MessageKind.INSERT).per_op_hops.count == 0

    def test_keys_within_tolerance_are_clipped_like_routed_inserts(self):
        can, plan, __, __ = self._grid()
        keys = np.array([[1.0 + 5e-10, -5e-10]])
        bulk_publish(can, plan, keys, 0.01)
        assert can.level_store.key_of(0).tolist() == [1.0, 0.0]
        assert 0 in can.node(can.owner_of(np.array([1.0, 0.0]))).membership


class TestWorkCounts:
    """The gain, held by counts rather than by a wall-clock gate."""

    def test_grid_build_validates_no_zone_one_by_one(self, monkeypatch):
        calls = []
        original = Zone.__post_init__
        monkeypatch.setattr(
            Zone, "__post_init__",
            lambda self: (calls.append(1), original(self))[1],
        )
        Zone.full(2)
        assert calls == [1]  # the counter sees a per-object validation
        can, __ = build_grid_can(2, 256)
        assert len(can) == 256
        assert calls == [1]

    def test_one_refcount_pass_and_no_sort_per_ledger(self, monkeypatch):
        can, plan = build_grid_can(2, 64)
        rng = np.random.default_rng(5)
        calls = {"incref": 0, "collapse": 0, "unique": 0}

        def counted(name, original):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(
            LevelStore, "_incref_bulk",
            counted("incref", LevelStore._incref_bulk),
        )
        monkeypatch.setattr(
            fabric_module, "_collapse",
            counted("collapse", fabric_module._collapse),
        )
        monkeypatch.setattr(np, "unique", counted("unique", np.unique))
        bulk_publish(can, plan, rng.random((500, 2)), 0.01)
        # One collapse per side, shared by both ledgers; a grid's ids are
        # dense, so neither collapse sorts.
        assert calls == {"incref": 1, "collapse": 2, "unique": 0}
        can.level_store.verify_integrity()


class TestDeferredGrid:
    """A grid's nodes exist only once its topology is read."""

    def test_scale_publish_builds_no_node(self, monkeypatch):
        built = []
        original = CANNode.__init__

        def counted(self, *args, **kwargs):
            built.append(1)
            original(self, *args, **kwargs)

        monkeypatch.setattr(CANNode, "__init__", counted)
        can, plan = build_grid_can(16, 32768)
        rng = np.random.default_rng(2)
        origins = rng.integers(0, plan.n_cells, 2000)
        report = bulk_publish(
            can, plan, rng.random((2000, 16)), 0.01, origins=origins
        )
        assert report.spheres == report.messages == 2000
        assert built == []
        assert can.fabric.snapshot()["nodes"] == plan.n_cells
        can.level_store.verify_integrity()
        owners = plan.owner_nodes(can.level_store._keys[:2000])
        assert report.nodes_touched == np.unique(owners).size
        # The first read builds every node, holding what was published.
        assert len(can.node(0).membership) == int((owners == 0).sum())
        assert len(built) == plan.n_cells
        can.level_store.verify_integrity()

    @pytest.mark.parametrize("read,grown", [
        (lambda can: can.node(3), 0),
        (lambda can: can.node_ids, 0),
        (len, 0),
        (lambda can: can.zone_table(), 0),
        (lambda can: can.join(np.array([0.3, 0.6])), 1),
        (lambda can: can.leave(5), -1),
        (lambda can: can.loads(), 0),
        (lambda can: can.all_zones(), 0),
    ])
    def test_any_topology_read_builds_the_grid(self, read, grown):
        can, plan = build_grid_can(2, 16)
        assert type(can._nodes) is not dict
        read(can)
        assert type(can._nodes) is dict
        assert len(can._nodes) == plan.n_cells + grown

    def test_a_grown_overlay_keeps_a_plain_dict(self):
        from repro.overlay.can import CANNetwork

        can = CANNetwork(2, rng=0)
        assert type(can._nodes) is dict
        can.grow(4)
        assert type(can._nodes) is dict

    def test_a_plan_for_another_offset_is_refused_unbuilt(self):
        can, __ = build_grid_can(2, 4, node_id_offset=10)
        __, other = build_grid_can(2, 4, node_id_offset=2)
        with pytest.raises(ValidationError, match="unknown CANNetwork node 2"):
            bulk_publish(can, other, np.full((3, 2), 0.1), 0.01)
        assert can.level_store.n_rows == 0
        assert type(can._nodes) is not dict

    def test_uncharged_unregistered_origins_change_nothing(self):
        can, plan = build_grid_can(2, 16)
        rng = np.random.default_rng(8)
        bulk_publish(can, plan, rng.random((10, 2)), 0.01,
                     origins=rng.integers(0, 16, 10))
        store, fabric = can.level_store, can.fabric
        before = (store.n_rows, store.generation, load_records(fabric),
                  kind_counts(fabric), dict(fabric.energy.per_node))
        with pytest.raises(ValidationError, match="unknown source node 999999"):
            bulk_publish(can, plan, rng.random((10, 2)), 0.01,
                         origins=np.full(10, 999999), charge=False)
        assert (store.n_rows, store.generation, load_records(fabric),
                kind_counts(fabric), dict(fabric.energy.per_node)) == before


def _publish_twice(can, plan, seed):
    """Two batches from fixed inputs: shared keys, outer face, origins."""
    rng = np.random.default_rng(seed)
    for batch in range(2):
        keys = rng.random((70, 2))
        keys[:5] = keys[5:10]
        keys[10] = 1.0
        bulk_publish(
            can, plan, keys, 0.05 * rng.random(70),
            peer_ids=(np.arange(70) + batch) % 6,
            origins=plan.node_id_offset + rng.integers(0, plan.n_cells, 70),
        )


def _mutate(store, steps):
    for step in steps:
        if step == "remove_entry":
            assert store.remove_entry(3) and store.remove_entry(77)
            assert not store.remove_entry(3)
        elif step == "remove_peer_entries":
            assert store.remove_peer_entries(4) > 0
        elif step == "compact":
            assert store.n_tombstones
            store.compact()


def _state(can):
    store, fabric = can.level_store, can.fabric
    store.verify_integrity()
    return {
        "rows": {
            node_id: can.node(node_id).membership.rows().tolist()
            for node_id in can.node_ids
        },
        "refcounts": store._refcounts[: store.n_rows].tolist(),
        "live": store._live[: store.n_rows].tolist(),
        "health": store.health(),
        "generation": store.generation,
        "ledger": list(load_records(fabric).items()),
        "kinds": kind_counts(fabric),
        "energy": list(fabric.energy.per_node.items()),
        "fabric_nodes": fabric.snapshot()["nodes"],
    }


class TestDeferredTwins:
    """Publish-then-build ends exactly where build-then-publish does."""

    @pytest.mark.parametrize("steps", [
        (),
        ("remove_entry",),
        ("remove_peer_entries",),
        ("remove_entry", "compact"),
        ("remove_peer_entries", "remove_entry", "compact"),
    ])
    def test_deferred_equals_eager(self, steps):
        eager, eager_plan = build_grid_can(2, 16, node_id_offset=300)
        eager.node_ids  # build the nodes before anything is published
        _publish_twice(eager, eager_plan, seed=5)
        _mutate(eager.level_store, steps)

        deferred, plan = build_grid_can(2, 16, node_id_offset=300)
        _publish_twice(deferred, plan, seed=5)
        _mutate(deferred.level_store, steps)
        deferred.level_store.verify_integrity()
        assert type(deferred._nodes) is not dict

        assert _state(deferred) == _state(eager)
        assert deferred.level_store._deferred is None

    def test_rows_all_released_before_the_build(self):
        can, plan = build_grid_can(2, 4)
        bulk_publish(can, plan, np.full((3, 2), 0.1), 0.01, peer_ids=9)
        store = can.level_store
        assert store.remove_peer_entries(9) == 3
        assert store._deferred is None and store.n_live == 0
        assert all(len(can.node(i).membership) == 0 for i in can.node_ids)
        store.verify_integrity()
