"""Tests for HyperMNetwork construction and publication."""

import numpy as np
import pytest

from repro import runtime
from repro.core.network import HyperMConfig, HyperMNetwork
from repro.evaluation.workloads import build_markov_network
from repro.exceptions import ValidationError
from repro.net.messages import MessageKind
from repro.obs.flight import FlightRecorder
from repro.overlay.baton import BatonNetwork
from repro.wavelets.multiresolution import Level
from tests.rows import held_values


class TestConfig:
    def test_defaults_are_paper_operating_point(self):
        config = HyperMConfig()
        assert config.levels_used == 4
        assert config.n_clusters == 10
        assert config.aggregation == "min"

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"levels_used": 0},
            {"n_clusters": 0},
            {"aggregation": "median"},
            {"kmeans_restarts": 0},
        ],
    )
    def test_invalid_configs(self, kwargs):
        with pytest.raises(ValidationError):
            HyperMConfig(**kwargs)


class TestConstruction:
    def test_levels_structure(self):
        net = HyperMNetwork(64, HyperMConfig(levels_used=4), rng=0)
        assert [str(l) for l in net.levels] == ["A", "D0", "D1", "D2"]
        assert net.overlays[Level.detail(2)].dimensionality == 4

    def test_add_peer_joins_every_overlay(self, rng):
        net = HyperMNetwork(16, HyperMConfig(levels_used=3, n_clusters=2), rng=0)
        peer = net.add_peer(rng.random((10, 16)))
        for level in net.levels:
            node_id = net.overlay_node(level, peer.peer_id)
            assert node_id in net.overlays[level].node_ids

    def test_dimension_mismatch_rejected(self, rng):
        net = HyperMNetwork(16, rng=0)
        with pytest.raises(ValidationError):
            net.add_peer(rng.random((5, 32)))

    def test_unknown_overlay_node(self):
        net = HyperMNetwork(16, rng=0)
        with pytest.raises(ValidationError):
            net.overlay_node(Level.approximation(), 99)

    def test_total_items(self, rng):
        net = HyperMNetwork(16, HyperMConfig(levels_used=2, n_clusters=2), rng=0)
        net.add_peer(rng.random((10, 16)))
        net.add_peer(rng.random((15, 16)))
        assert net.total_items == 25


class TestPublication:
    def test_report_counts(self, rng):
        config = HyperMConfig(levels_used=3, n_clusters=4)
        net = HyperMNetwork(16, config, rng=0)
        for __ in range(3):
            net.add_peer(rng.random((20, 16)))
        report = net.publish_all()
        assert report.items_published == 60
        # At most K_p spheres per level per peer.
        assert report.spheres_inserted <= 3 * 3 * 4
        assert report.spheres_inserted >= 3 * 3  # at least 1 per level/peer
        assert report.total_hops == report.routing_hops + report.replica_hops
        assert report.energy > 0
        assert report.bytes_sent > 0

    def test_hops_per_item(self, rng):
        config = HyperMConfig(levels_used=2, n_clusters=2)
        net = HyperMNetwork(16, config, rng=0)
        net.add_peer(rng.random((50, 16)))
        report = net.publish_all()
        assert np.isclose(
            report.hops_per_item, report.total_hops / 50
        )

    def test_published_entries_present_in_overlays(self, rng):
        config = HyperMConfig(levels_used=2, n_clusters=3)
        net = HyperMNetwork(16, config, rng=0)
        net.add_peer(rng.random((20, 16)))
        net.publish_all()
        for level in net.levels:
            stored = sum(net.overlays[level].loads().values())
            assert stored >= 1

    def test_cluster_records_reference_peers(self, rng):
        config = HyperMConfig(levels_used=2, n_clusters=2)
        net = HyperMNetwork(16, config, rng=0)
        net.add_peer(rng.random((10, 16)))
        net.add_peer(rng.random((10, 16)))
        net.publish_all()
        level = net.levels[0]
        overlay = net.overlays[level]
        peer_ids = set()
        for node_id in overlay.node_ids:
            for record in held_values(overlay, node_id):
                peer_ids.add(record.peer_id)
        assert peer_ids == {0, 1}

    def test_merge_reports(self, rng):
        config = HyperMConfig(levels_used=2, n_clusters=2)
        net = HyperMNetwork(16, config, rng=0)
        p0 = net.add_peer(rng.random((10, 16)))
        p1 = net.add_peer(rng.random((10, 16)))
        r0 = net.publish_peer(p0.peer_id)
        r1 = net.publish_peer(p1.peer_id)
        merged = r0.merge(r1)
        assert merged.items_published == 20
        assert merged.total_hops == r0.total_hops + r1.total_hops

    def test_a_published_peer_is_refused_a_second_full_publication(self):
        workload, __ = build_markov_network(n_peers=6, items_per_peer=40, rng=0)
        net = workload.network

        def rows_of_peer_0():
            return [
                overlay.level_store.rows_for_peer(0).size
                for overlay in net.overlays.values()
            ]

        published = rows_of_peer_0()
        bytes_before = net.fabric.metrics.total_bytes
        with pytest.raises(ValidationError, match="republish_peer"):
            net.publish_peer(0)
        assert rows_of_peer_0() == published
        assert net.fabric.metrics.total_bytes == bytes_before
        # Withdrawn first, the peer publishes again (``republish_peer(full=True)``).
        net.withdraw_summaries(0)
        assert rows_of_peer_0() == [0] * len(net.levels)
        report = net.publish_peer(0)
        assert sum(rows_of_peer_0()) == report.spheres_inserted > 0


class TestChargedWithdrawal:
    def test_each_row_retraces_its_holders_from_the_peer(self):
        """One ``REPLICATE`` chain per row, from the peer's node through
        the row's holders in member order, skipping a first holder that is
        the peer's node itself."""
        workload, __ = build_markov_network(n_peers=6, items_per_peer=40, rng=0)
        net = workload.network
        expected, skipped = [], 0
        for level, overlay in net.overlays.items():
            doomed = set(overlay.level_store.rows_for_peer(2).tolist())
            chains: dict[int, list[int]] = {}
            for node_id in overlay.node_ids:
                held = overlay.node(node_id).membership.rows().tolist()
                for row in sorted(doomed.intersection(held)):
                    chains.setdefault(row, []).append(node_id)
            origin = net.overlay_node(level, 2)
            for holders in chains.values():
                skipped += holders[0] == origin
                previous = origin
                for holder in holders:
                    if holder != previous:
                        expected.append((previous, holder))
                        previous = holder
        assert skipped and len(expected) > len(net.levels)
        rec = FlightRecorder()
        with runtime.run_context(flight=rec), rec.span("withdraw"):
            net.withdraw_summaries(2, charge=True)
        assert [(e.source, e.dest) for e in rec.edges] == expected
        assert {e.kind for e in rec.edges} == {MessageKind.REPLICATE.value}


class TestOverlayIndependence:
    def test_runs_on_baton_overlay(self, rng):
        """The paper's claim: Hyper-M is overlay-agnostic."""
        config = HyperMConfig(levels_used=3, n_clusters=3)
        net = HyperMNetwork(
            16, config, rng=0, overlay_factory=BatonNetwork
        )
        for __ in range(4):
            net.add_peer(rng.random((15, 16)))
        report = net.publish_all()
        assert report.items_published == 60
        result = net.range_query(rng.random(16), 0.5)
        assert result.peers_contacted


class TestDepartureSemantics:
    """depart() is the *clean-only* exit; crashes live in repro.faults."""

    @pytest.fixture
    def network(self, rng):
        config = HyperMConfig(levels_used=3, n_clusters=3)
        net = HyperMNetwork(16, config, rng=0)
        for __ in range(5):
            net.add_peer(rng.random((20, 16)))
        net.publish_all()
        return net

    def test_depart_hands_off_zones(self, network):
        counts = {
            level: len(overlay.node_ids)
            for level, overlay in network.overlays.items()
        }
        network.depart(2)
        assert not network.peers[2].online
        for level, overlay in network.overlays.items():
            assert len(overlay.node_ids) == counts[level] - 1

    def test_depart_keeps_index_routable(self, network, rng):
        network.depart(1)
        result = network.range_query(rng.random(16), 0.6)
        online = {p for p, peer in network.peers.items() if peer.online}
        assert set(result.peers_contacted) <= online

    def test_depart_never_leaves_crashed_nodes(self, network):
        """Clean departure must not touch the fault injector's registry."""
        from repro.faults import FaultPlan

        injector = network.fabric.install_faults(FaultPlan())
        network.depart(2)
        assert injector.crashed_peers == set()
        assert injector.crashed_nodes == set()

    def test_abrupt_failure_requires_faults_module(self, network):
        """There is no abrupt-departure flag here; crash_peer is the way."""
        from repro.faults import crash_peer

        with pytest.raises(ValidationError):
            crash_peer(network, 2)


def _publication_digest() -> str:
    """Hash of everything a routed publication session writes and answers.

    16 peers publish (routed CAN inserts with replication), then delta
    rounds insert, patch, retract and revive spheres. The hash covers
    every report (energy by ``float.hex``), the ledger by kind and per
    node in row-creation order, each level store's columns and ids, every
    node's memberships, the entry mapping the delta pipeline keeps, and
    20 routed range answers with their Eq. 1 scores by ``float.hex``.
    """
    import hashlib

    from repro.datasets.histograms import generate_histograms
    from repro.datasets.partition import partition_among_peers
    from repro.evaluation.workloads import sample_queries

    dataset = generate_histograms(32, 32, 64, rng=7)
    net = HyperMNetwork(64, HyperMConfig(levels_used=4, n_clusters=6), rng=7)
    for data, item_ids in partition_among_peers(
        dataset.data, 16, item_ids=np.arange(dataset.data.shape[0]), rng=8
    ):
        net.add_peer(data, item_ids)
    reports = [net.publish_peer(peer_id) for peer_id in net.peers]
    mutations = np.random.default_rng(9)
    for peer_id in range(4):
        peer = net.peers[peer_id]
        first_id = 10_000 + 6 * peer_id
        peer.add_items(
            mutations.random((6, 64)), np.arange(first_id, first_id + 6)
        )
        peer.remove_items(peer.item_ids[:4])
        reports.append(net.publish_delta(peer_id))
    net.withdraw_summaries(5)
    reports.append(net.publish_delta(5))  # revives every withdrawn sphere
    reports.append(net.publish_delta(6, force_full=True))
    state = [
        [
            (r.items_published, r.spheres_inserted, r.spheres_updated,
             r.spheres_removed, r.routing_hops, r.replica_hops, r.bytes_sent,
             float(r.energy).hex())
            for r in reports
        ],
        sorted(
            (kind.value, row.messages, row.hops, row.bytes)
            for kind, row in net.fabric.metrics.by_kind.items()
        ),
        [(node_id, row.to_record())
         for node_id, row in net.fabric.load.per_node.items()],
        float(net.fabric.energy.total).hex(),
    ]
    for level in net.levels:
        overlay = net.overlays[level]
        store = overlay.level_store
        rows = store.live_rows()
        block = store.column_block(rows)
        state.append([
            column.tobytes().hex() for column in block.columns()
        ] + [
            [store.entry_id_of(row) for row in rows],
            store.generation,
            {node_id: overlay.node(node_id).membership.rows().tolist()
             for node_id in overlay.node_ids},
        ])
    state.append([
        (str(level), peer_id, list(mapping.items()))
        for (level, peer_id), mapping in net._published_entries.items()
    ])
    queries = sample_queries(dataset.data, 20, rng=10, jitter=0.01)
    origins = np.random.default_rng(11).integers(0, net.n_peers, 20)
    for query, origin in zip(queries, origins):
        result = net.range_query(
            query, 0.12, max_peers=6, origin_peer=int(origin)
        )
        state.append((
            sorted(map(int, result.item_ids)), result.index_hops,
            sorted(
                (int(peer), float(score).hex())
                for peer, score in result.peer_scores.items()
            ),
        ))
    return hashlib.sha256(repr(state).encode()).hexdigest()[:16]


#: Recorded before publication was batched per (peer, level); regenerate
#: with ``python -c "from tests.test_core_network import
#: _publication_digest as d; print(d())"`` only for a deliberate protocol
#: change.
PUBLICATION_DIGEST = "bdde9eee7cda7d81"


def test_publication_session_is_pinned():
    assert _publication_digest() == PUBLICATION_DIGEST
