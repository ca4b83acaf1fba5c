"""Tests for zone/peer load accounting and the generation-tagged loadmap."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.network import HyperMConfig, HyperMNetwork
from repro.exceptions import ValidationError
from repro.faults.injector import Verdict
from repro.net import LoadLedger, MessageKind, NodeLoad
from repro.obs.loadmap import build_loadmap
from repro.utils.stats import gini
from tests.ledger_oracle import fabric


class TestGini:
    def test_empty_and_all_zero(self):
        assert gini([]) == 0.0
        assert gini([0.0, 0.0, 0.0]) == 0.0

    def test_uniform_is_zero(self):
        assert gini([5.0, 5.0, 5.0, 5.0]) == pytest.approx(0.0)

    def test_full_concentration(self):
        # One node carries everything: gini -> (n - 1) / n.
        assert gini([0.0, 0.0, 0.0, 1.0]) == pytest.approx(0.75)

    def test_known_value(self):
        assert gini([1.0, 2.0, 3.0, 4.0]) == pytest.approx(0.25)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            gini([1.0, -1.0])


class TestLoadLedger:
    """The load view of frames written through ``Network.transmit``."""

    @staticmethod
    def _transmit(net, source, destination, size):
        net.transmit(source, destination, MessageKind.INSERT, size)

    def test_clean_charge(self):
        net = fabric(3)
        self._transmit(net, 1, 2, 100)
        src, dst = net.load.node_load(1), net.load.node_load(2)
        assert (src.msgs_out, src.bytes_out) == (1, 100)
        assert (dst.msgs_in, dst.bytes_in) == (1, 100)
        assert (src.msgs_in, dst.msgs_out) == (0, 0)
        assert src.drops == dst.drops == 0

    def test_retransmits_and_duplicates_burn_both_radios(self):
        net = fabric(3, [Verdict(retransmits=2, copies=2)])
        self._transmit(net, 1, 2, 10)
        src, dst = net.load.node_load(1), net.load.node_load(2)
        # 1 primary + 2 retransmits + 1 duplicate = 4 frames on the air.
        assert (src.msgs_out, src.bytes_out) == (4, 40)
        assert (dst.msgs_in, dst.bytes_in) == (4, 40)
        assert src.retransmits == dst.retransmits == 2
        assert src.duplicates == dst.duplicates == 1

    def test_dropped_frame_costs_sender_only(self):
        net = fabric(3, [Verdict(delivered=False)])
        self._transmit(net, 1, 2, 100)
        src, dst = net.load.node_load(1), net.load.node_load(2)
        assert (src.msgs_out, src.bytes_out) == (1, 100)
        assert (dst.msgs_in, dst.bytes_in) == (0, 0)
        assert src.drops == dst.drops == 1

    def test_query_hits(self):
        ledger = LoadLedger()
        ledger.note_query_hit(7)
        ledger.note_query_hit(7, 2)
        assert ledger.node_load(7).query_hits == 3

    def test_untouched_node_is_zeroed(self):
        load = LoadLedger().node_load(99)
        assert isinstance(load, NodeLoad)
        assert load.bytes_total == 0
        assert load.to_record() == {
            "msgs_in": 0, "msgs_out": 0, "bytes_in": 0, "bytes_out": 0,
            "retransmits": 0, "duplicates": 0, "drops": 0, "query_hits": 0,
        }

    def test_snapshot_totals(self):
        net = fabric(
            4, [Verdict(), Verdict(retransmits=1), Verdict(delivered=False)]
        )
        self._transmit(net, 1, 2, 10)
        self._transmit(net, 2, 3, 20)
        self._transmit(net, 3, 1, 30)
        net.load.note_query_hit(2)
        assert net.load.snapshot() == {
            "nodes": 3,
            "msgs": 1 + 2 + 1,
            "bytes": 10 + 40 + 30,
            "retransmits": 2,  # both endpoints of the lossy link
            "duplicates": 0,
            "drops": 2,
            "query_hits": 1,
        }


def _build(seed=0, n_peers=4, dim=16):
    config = HyperMConfig(levels_used=3, n_clusters=3)
    net = HyperMNetwork(dim, config, rng=seed)
    data_rng = np.random.default_rng(seed + 1)
    for __ in range(n_peers):
        net.add_peer(data_rng.random((10, dim)))
    net.publish_all()
    rng = np.random.default_rng(seed)
    for __ in range(3):
        net.range_query(rng.random(dim), 0.6, max_peers=2)
    return net


class TestBuildLoadmap:
    @pytest.fixture(scope="class")
    def network(self):
        return _build(seed=6)

    @pytest.fixture(scope="class")
    def loadmap(self, network):
        return build_loadmap(network, top_k=5)

    def test_sections(self, loadmap):
        assert set(loadmap) == {
            "generations", "zones", "peers", "sphere_heat", "hotspots",
            "skew",
        }

    def test_generations_match_level_stores(self, network, loadmap):
        assert loadmap["generations"] == {
            str(level): overlay.level_store.generation
            for level, overlay in network.overlays.items()
        }

    def test_zone_rows_cover_every_overlay_node(self, network, loadmap):
        expected = sum(
            len(overlay.node_ids) for overlay in network.overlays.values()
        )
        assert len(loadmap["zones"]) == expected
        # Sorted per level, each node attributed to a live peer.
        for row in loadmap["zones"]:
            assert row["peer"] in network.peers
            assert row["zones"] >= 1

    def test_traffic_conservation(self, network, loadmap):
        # On a clean fabric every charged frame is a primary transmit, so
        # the zone rows must re-add to exactly the fabric-wide totals.
        metrics = network.fabric.metrics
        assert sum(r["msgs_out"] for r in loadmap["zones"]) == (
            metrics.total_messages
        )
        assert sum(r["bytes_out"] for r in loadmap["zones"]) == (
            metrics.total_bytes
        )
        assert sum(r["bytes_in"] for r in loadmap["zones"]) == (
            metrics.total_bytes
        )

    def test_peer_rows_aggregate_zone_rows(self, network, loadmap):
        assert [r["peer"] for r in loadmap["peers"]] == sorted(network.peers)
        for field in ("msgs_in", "bytes_out", "store_rows", "query_hits"):
            assert sum(r[field] for r in loadmap["peers"]) == (
                sum(r[field] for r in loadmap["zones"])
            )
        for row in loadmap["peers"]:
            assert row["online"] is True
            assert row["nodes"] == len(network.overlays)

    def test_energy_attribution(self, network, loadmap):
        total = sum(r["energy"] for r in loadmap["zones"])
        assert total == pytest.approx(network.fabric.energy.total)

    def test_hotspots_ranked_by_bytes(self, loadmap):
        zones = loadmap["hotspots"]["zones"]
        assert 0 < len(zones) <= 5
        ranks = [row["bytes"] for row in zones]
        assert ranks == sorted(ranks, reverse=True)
        peers = loadmap["hotspots"]["peers"]
        assert [r["bytes"] for r in peers] == sorted(
            (r["bytes"] for r in peers), reverse=True
        )

    def test_skew_blocks(self, loadmap):
        for block in loadmap["skew"].values():
            assert 0.0 <= block["gini"] < 1.0
            assert block["max"] >= block["mean"] >= 0.0
            if block["mean"] > 0:
                assert block["max_over_mean"] == pytest.approx(
                    block["max"] / block["mean"]
                )

    def test_snapshots_of_same_state_are_identical(self, network, loadmap):
        assert build_loadmap(network, top_k=5) == loadmap

    def test_negative_top_k_is_refused(self, network):
        # A [:-1] slice used to report every row but the coldest as "top".
        with pytest.raises(ValidationError, match="top_k must be >= 0"):
            build_loadmap(network, top_k=-1)
