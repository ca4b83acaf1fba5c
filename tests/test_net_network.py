"""Tests for messages, energy, metrics, and the network fabric."""

import pytest

from repro.exceptions import ValidationError
from repro.net.energy import EnergyModel
from repro.net.messages import (
    BYTES_PER_COORD,
    HEADER_BYTES,
    MessageKind,
    vector_message_size,
)
from repro.net.metrics import NetworkMetrics
from repro.net.network import Network
from tests.ledger_oracle import fabric


class TestMessageSizes:
    def test_vector_size(self):
        assert vector_message_size(4) == HEADER_BYTES + 4 * BYTES_PER_COORD

    def test_with_scalars(self):
        assert vector_message_size(4, scalars=2) == (
            HEADER_BYTES + 4 * BYTES_PER_COORD + 16
        )

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            vector_message_size(-1)


class TestEnergyModel:
    def test_hop_cost_is_tx_plus_rx(self):
        model = EnergyModel()
        assert model.hop_cost(100) == model.tx_cost(100) + model.rx_cost(100)

    def test_costs_scale_with_bytes(self):
        model = EnergyModel(tx_per_byte=1.0, tx_fixed=10.0)
        assert model.tx_cost(0) == 10.0
        assert model.tx_cost(5) == 15.0

    def test_ledger_accumulates(self):
        net = fabric(4, tx_per_byte=1, rx_per_byte=1, tx_fixed=0, rx_fixed=0)
        net.transmit(1, 2, MessageKind.DATA, 100)
        net.transmit(2, 3, MessageKind.DATA, 50)
        ledger = net.energy
        assert ledger.node_energy(1) == 100
        assert ledger.node_energy(2) == 100 + 50
        assert ledger.node_energy(3) == 50
        assert ledger.total == 300

    def test_negative_cost_rejected(self):
        with pytest.raises(ValidationError):
            EnergyModel(tx_per_byte=-1.0)


class TestNetworkMetrics:
    def test_transmit_counting(self):
        net = fabric(2)
        net.transmit(0, 1, MessageKind.INSERT, 100)
        net.transmit(0, 1, MessageKind.INSERT, 50)
        net.transmit(1, 0, MessageKind.LOOKUP, 10)
        metrics = net.metrics
        assert metrics.total_messages == 3
        assert metrics.total_hops == 3
        assert metrics.total_bytes == 160
        assert metrics.kind(MessageKind.INSERT).bytes == 150

    def test_per_operation_stats(self):
        metrics = NetworkMetrics()
        metrics.finish_operation(MessageKind.INSERT, 3)
        metrics.finish_operation(MessageKind.INSERT, 5)
        assert metrics.kind(MessageKind.INSERT).per_op_hops.mean == 4.0

    def test_snapshot(self):
        net = fabric(2)
        net.transmit(0, 1, MessageKind.JOIN, 10)
        snap = net.metrics.snapshot()
        assert snap["join"]["messages"] == 1


class TestNetworkFabric:
    def test_register_and_transmit(self):
        net = Network()
        net.register(1)
        net.register(2)
        assert net.transmit(1, 2, MessageKind.DATA, 64) is True
        assert net.metrics.total_bytes == 64
        assert net.energy.total > 0

    def test_duplicate_registration_rejected(self):
        net = Network()
        net.register(1)
        with pytest.raises(ValidationError):
            net.register(1)

    def test_register_many_adds_every_id(self):
        net = Network()
        net.register(3)
        net.register_many(range(4, 20))
        assert net.snapshot()["nodes"] == 17
        assert net.transmit(3, 19, MessageKind.DATA, 8) is True
        with pytest.raises(ValidationError, match="node id 7 already"):
            net.register(7)

    def test_register_many_refuses_a_taken_id_adding_none(self):
        net = Network()
        net.register_many(range(100, 116))
        with pytest.raises(ValidationError, match="node id 100 already"):
            net.register_many(range(92, 108))
        assert net.snapshot()["nodes"] == 16
        net.register_many(range(92, 100))  # 92-99 were never taken
        assert net.snapshot()["nodes"] == 24

    def test_register_many_refuses_a_repeated_id(self):
        net = Network()
        with pytest.raises(ValidationError, match="distinct"):
            net.register_many([5, 6, 5])
        assert net.snapshot()["nodes"] == 0

    def test_unknown_nodes_rejected(self):
        net = Network()
        net.register(1)
        with pytest.raises(ValidationError):
            net.transmit(1, 99, MessageKind.DATA, 10)
        with pytest.raises(ValidationError):
            net.transmit(99, 1, MessageKind.DATA, 10)

    def test_bulk_refuses_unknown_nodes_before_charging(self):
        net = Network()
        net.register(0)
        with pytest.raises(ValidationError, match="unknown source node 999"):
            net.transmit_bulk(MessageKind.INSERT, [0, 999, 0], [0, 0, 0], 8)
        with pytest.raises(
            ValidationError, match="unknown destination node 7"
        ):
            net.transmit_bulk(MessageKind.INSERT, [0, 0], [0, 7], 8)
        assert net.metrics.total_messages == 0
        assert net.energy.per_node == {} and net.energy.total == 0.0
        assert net.load.per_node == {}

    def test_energy_split_between_endpoints(self):
        net = Network()
        net.register(1)
        net.register(2)
        net.transmit(1, 2, MessageKind.DATA, 100)
        tx = net.energy.model.tx_cost(100)
        rx = net.energy.model.rx_cost(100)
        assert net.energy.node_energy(1) == tx
        assert net.energy.node_energy(2) == rx

    def test_negative_size_rejected(self):
        net = Network()
        net.register(1)
        net.register(2)
        with pytest.raises(ValidationError):
            net.transmit(1, 2, MessageKind.DATA, -5)
