"""Radio energy model.

A first-order MANET radio model: transmitting or receiving a message costs
a fixed electronics overhead plus a per-byte cost. Defaults approximate a
Bluetooth-class short-range radio (the paper's motivating hardware) in
microjoules; the *ratios* are what matter for comparing dissemination
strategies, and those are robust to the exact constants.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.utils.validation import check_positive


@dataclass
class EnergyModel:
    """Per-message energy accounting.

    Attributes
    ----------
    tx_per_byte / rx_per_byte:
        Energy per payload byte transmitted / received (µJ).
    tx_fixed / rx_fixed:
        Fixed per-message electronics cost (µJ).
    """

    tx_per_byte: float = 0.60
    rx_per_byte: float = 0.67
    tx_fixed: float = 50.0
    rx_fixed: float = 50.0

    def __post_init__(self) -> None:
        check_positive(self.tx_per_byte, "tx_per_byte", strict=False)
        check_positive(self.rx_per_byte, "rx_per_byte", strict=False)
        check_positive(self.tx_fixed, "tx_fixed", strict=False)
        check_positive(self.rx_fixed, "rx_fixed", strict=False)

    def tx_cost(self, size_bytes: int) -> float:
        """Energy to transmit a message of ``size_bytes`` (µJ)."""
        return self.tx_fixed + self.tx_per_byte * size_bytes

    def rx_cost(self, size_bytes: int) -> float:
        """Energy to receive a message of ``size_bytes`` (µJ)."""
        return self.rx_fixed + self.rx_per_byte * size_bytes

    def hop_cost(self, size_bytes: int) -> float:
        """Total energy one hop drains from the network (tx + rx)."""
        return self.tx_cost(size_bytes) + self.rx_cost(size_bytes)


class EnergyLedger:
    """Radio energy, read off the frame ledger's integer counters.

    The model is linear, so drain *is* ``cost × count``: nothing is
    accumulated here. ``metrics`` and ``load`` are the fabric's
    :class:`~repro.net.metrics.NetworkMetrics` and
    :class:`~repro.net.metrics.LoadLedger`; the radio pays for every
    primary frame and every link retransmit, on both endpoints, and for
    no injected duplicate (see :class:`~repro.net.metrics.NodeLoad`).
    """

    def __init__(self, model: EnergyModel, metrics, load):
        self.model = model
        self._metrics = metrics
        self._load = load

    @property
    def total(self) -> float:
        """Network-wide drain (µJ): one pass over the per-kind rows."""
        frames = size = 0
        for row in self._metrics.by_kind.values():
            frames += row.messages + row.retransmits
            size += row.bytes + row.retransmit_bytes
        model = self.model
        return (
            (model.tx_fixed + model.rx_fixed) * frames
            + (model.tx_per_byte + model.rx_per_byte) * size
        )

    def _drain(self, row) -> float:
        model = self.model
        return (
            model.tx_fixed * (row.msgs_out + row.tx_msgs_adjust)
            + model.tx_per_byte * (row.bytes_out + row.tx_bytes_adjust)
            + model.rx_fixed * (row.msgs_in + row.rx_msgs_adjust)
            + model.rx_per_byte * (row.bytes_in + row.rx_bytes_adjust)
        )

    @property
    def per_node(self) -> dict[int, float]:
        """``{node_id: drain}`` for every node the radio has billed."""
        return {
            node_id: self._drain(row)
            for node_id, row in self._load.per_node.items()
            if row.msgs_out or row.msgs_in or row.drops
        }

    def node_energy(self, node_id: int) -> float:
        """Energy drained from ``node_id`` so far (µJ)."""
        return self._drain(self._load.node_load(node_id))

    def snapshot(self) -> dict:
        """Deterministic summary for reports: total plus spread statistics.

        The max/mean ratio is the MANET hot-spot signal — a battery dies
        first at the max-drain node, so dissemination strategies are
        judged on the spread, not just the total.
        """
        drains = list(self.per_node.values())
        mean = (sum(drains) / len(drains)) if drains else 0.0
        peak = max(drains) if drains else 0.0
        return {
            "total": self.total,
            "nodes_charged": len(drains),
            "mean_node": mean,
            "max_node": peak,
            "max_over_mean": (peak / mean) if mean > 0 else 0.0,
        }
