"""Replay oracle for the fabric's frame ledger (test helpers).

Before the ledger was one write, ``Network.transmit`` wrote every frame
three times: ``EnergyLedger.charge_hop`` (sequential float adds, once
per physical frame), ``NetworkMetrics.record_*`` and
``LoadLedger.charge``. :class:`ReplayOracle` keeps those three per-frame
formulas verbatim, so the tests can hold the one-write fabric to them:
integers exactly, energy to 1e-12 relative.

:class:`ScriptedInjector` makes ``transmit`` take a chosen fault verdict
without any randomness.
"""

from __future__ import annotations

from repro.faults.injector import FaultInjector, Verdict
from repro.net import EnergyModel, Network

INT_FIELDS = (
    "msgs_in", "msgs_out", "bytes_in", "bytes_out",
    "retransmits", "duplicates", "drops", "query_hits",
)
KIND_FIELDS = (
    "messages", "hops", "bytes", "retransmits", "retransmit_bytes",
    "duplicates",
)


class ScriptedInjector(FaultInjector):
    """Hands ``transmit`` the queued verdicts in order, then passes."""

    def __init__(self, verdicts=()):
        super().__init__()
        self.script = list(verdicts)

    @property
    def passthrough(self) -> bool:
        return False

    def on_transmit(self, kind, source, destination, now) -> Verdict:
        return self.script.pop(0) if self.script else Verdict()


def fabric(n_nodes: int, verdicts=None, **model) -> Network:
    """A fabric of nodes ``0..n_nodes-1``; scripted when ``verdicts``."""
    net = Network(energy_model=EnergyModel(**model) if model else None)
    for node_id in range(n_nodes):
        net.register(node_id)
    if verdicts is not None:
        net.install_faults(ScriptedInjector(verdicts))
    return net


class ReplayOracle:
    """The three pre-ledger per-frame write formulas, kept verbatim."""

    def __init__(self, model: EnergyModel):
        self.model = model
        self.energy_per_node: dict[int, float] = {}
        self.energy_total = 0.0
        self.by_kind: dict = {}
        self.load: dict[int, dict] = {}

    def _slot(self, node_id: int) -> dict:
        return self.load.setdefault(node_id, dict.fromkeys(INT_FIELDS, 0))

    def frame(self, source, destination, kind, size, verdict=Verdict()):
        retransmits = verdict.retransmits
        duplicates = max(0, verdict.copies - 1)
        dropped = not verdict.delivered
        # EnergyLedger.charge_hop, once per physical frame.
        for __ in range(1 + retransmits):
            tx = self.model.tx_cost(size)
            rx = self.model.rx_cost(size)
            per_node = self.energy_per_node
            per_node[source] = per_node.get(source, 0.0) + tx
            per_node[destination] = per_node.get(destination, 0.0) + rx
            self.energy_total += tx + rx
        # NetworkMetrics.record_transmit / _retransmits / _duplicates.
        bucket = self.by_kind.setdefault(kind, dict.fromkeys(KIND_FIELDS, 0))
        bucket["messages"] += 1
        bucket["hops"] += 1
        bucket["bytes"] += size
        bucket["retransmits"] += retransmits
        bucket["retransmit_bytes"] += retransmits * size
        bucket["duplicates"] += duplicates
        # LoadLedger.charge.
        frames = 1 + retransmits + duplicates
        src = self._slot(source)
        src["msgs_out"] += frames
        src["bytes_out"] += size * frames
        src["retransmits"] += retransmits
        src["duplicates"] += duplicates
        dst = self._slot(destination)
        if dropped:
            src["drops"] += 1
            dst["drops"] += 1
        else:
            dst["msgs_in"] += frames
            dst["bytes_in"] += size * frames
        dst["retransmits"] += retransmits
        dst["duplicates"] += duplicates

    def bulk(self, senders, receivers, kind, size) -> None:
        """``transmit_bulk``: distinct senders, then distinct receivers,
        are touched in ascending id order; then every frame is replayed."""
        for node_id in sorted(set(senders)) + sorted(set(receivers)):
            self._slot(node_id)
        for source, destination in zip(senders, receivers):
            self.frame(source, destination, kind, size)

    def query_hit(self, node_id: int, n: int = 1) -> None:
        self._slot(node_id)["query_hits"] += n

    def energy_snapshot(self) -> dict:
        drains = list(self.energy_per_node.values())
        mean = (sum(drains) / len(drains)) if drains else 0.0
        peak = max(drains) if drains else 0.0
        return {
            "total": self.energy_total,
            "nodes_charged": len(drains),
            "mean_node": mean,
            "max_node": peak,
            "max_over_mean": (peak / mean) if mean > 0 else 0.0,
        }

    def load_snapshot(self) -> dict:
        def column(name: str) -> int:
            return sum(slot[name] for slot in self.load.values())

        return {
            "nodes": len(self.load),
            "msgs": column("msgs_out"),
            "bytes": column("bytes_out"),
            "retransmits": column("retransmits"),
            "duplicates": column("duplicates"),
            "drops": column("drops"),
            "query_hits": column("query_hits"),
        }


def kind_counts(fabric: Network) -> dict:
    """``{kind: {field: int}}`` of the fabric's per-kind rows."""
    return {
        kind: {name: getattr(row, name) for name in KIND_FIELDS}
        for kind, row in fabric.metrics.by_kind.items()
    }


def load_records(fabric: Network) -> dict:
    """``{node_id: to_record()}`` of the fabric's per-node rows."""
    return {
        node_id: row.to_record()
        for node_id, row in fabric.load.per_node.items()
    }
