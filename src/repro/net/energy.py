"""Radio energy model.

A first-order MANET radio model: transmitting or receiving a message costs
a fixed electronics overhead plus a per-byte cost. Defaults approximate a
Bluetooth-class short-range radio (the paper's motivating hardware) in
microjoules; the *ratios* are what matter for comparing dissemination
strategies, and those are robust to the exact constants.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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


@dataclass
class EnergyLedger:
    """Accumulated energy per node plus a network-wide total."""

    model: EnergyModel = field(default_factory=EnergyModel)
    per_node: dict = field(default_factory=dict)
    total: float = 0.0

    def charge_hop(self, sender: int, receiver: int, size_bytes: int) -> None:
        """Charge one hop: tx on ``sender``, rx on ``receiver``."""
        tx = self.model.tx_cost(size_bytes)
        rx = self.model.rx_cost(size_bytes)
        self.per_node[sender] = self.per_node.get(sender, 0.0) + tx
        self.per_node[receiver] = self.per_node.get(receiver, 0.0) + rx
        self.total += tx + rx

    def charge_bulk(self, sent, received, size_bytes: int) -> None:
        """Charge many equal-sized hops at once (scale harness).

        ``sent`` / ``received`` are each ``(ids, counts)``: the distinct
        nodes and the frames each transmitted / received — the collapse
        :meth:`repro.net.network.Network.transmit_bulk` computes once
        for every ledger — so the hot-spot statistics in :meth:`snapshot`
        stay exact while the cost is O(nodes), not O(frames).
        """
        tx = self.model.tx_cost(size_bytes)
        rx = self.model.rx_cost(size_bytes)
        for (ids, counts), cost in ((sent, tx), (received, rx)):
            for node_id, count in zip(ids, counts):
                self.per_node[node_id] = (
                    self.per_node.get(node_id, 0.0) + cost * count
                )
        self.total += (tx + rx) * sum(sent[1])

    def node_energy(self, node_id: int) -> float:
        """Energy drained from ``node_id`` so far (µJ)."""
        return self.per_node.get(node_id, 0.0)

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
