"""Load-adaptation: the control loop that fixes hotspot zone overload.

The observability layer already measures the problem — skewed query
workloads concentrate traffic on a few CAN zones (``build_loadmap``'s
Gini / max-over-mean skew statistics). This module closes the loop: an
:class:`AdaptationController` consumes one generation-tagged loadmap
snapshot per *epoch* (every ``epoch_queries`` range queries) and reacts
along four axes:

* **Hot-owner rebalancing** — a node whose byte traffic exceeds
  :data:`SPLIT_THRESHOLD` × the level mean sheds load through
  :meth:`~repro.overlay.can.CANNetwork.rebalance_hot`: CAN splits the
  hot zone and hands half to the least-loaded neighbour — the GeoP2P
  idiom.
* **Replication retuning** — spheres whose query heat grew this epoch
  gain extra replicas on least-loaded nodes
  (:meth:`~repro.overlay.can.CANNetwork.boost_replication`);
  boosted spheres that went cold shed the extras
  (:meth:`~repro.overlay.can.CANNetwork.shed_replication`). Both
  reuse the shared-row membership machinery — no withdraw + republish
  round.
* **Quality-scored multicast** — retrieval requests fan out through a
  small relay tree rooted at the highest-quality peers (fewest
  retransmits/drops in the :class:`~repro.net.metrics.LoadLedger`),
  responses carry only item vectors the querier has not already
  received, and each peer serves retrieval from its least-loaded
  overlay interface instead of always its level-0 node.
* **Quality-biased routing** — overlay greedy routing breaks distance
  ties towards low-penalty nodes (``route_penalty`` hook); the owner
  reached, and therefore all stored state, is unchanged.

Adaptation is tied to a zone partition (GeoP2P), and only CAN has one:
every action goes through :func:`adaptation_plane`, which returns a CAN
overlay or a *metered* ``None``. Levels on any other backend are
skipped, with the miss counted on the
``overlay.plane.adaptation.missing`` counter — never via ``hasattr``
probing.

Every decision is recorded as an :class:`AdaptationDecision`; given the
same seed and fault plan the decision sequence is bit-identical across
runs (all inputs are deterministic ledgers and all iteration orders are
explicitly sorted).

Adaptation is on or off: the operating point is this module's
constants, and :class:`AdaptConfig` holds only the epoch cadence. The
CLI's ``--adapt`` flag puts a config in the run context
(``runtime.current.adapt``), which
:class:`repro.core.network.HyperMNetwork` reads at construction time.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.obs import registry as obs_registry
from repro.overlay.can import CANNetwork
from repro.utils.validation import check_count

#: Rebalance a zone when its bytes exceed this multiple of the level's
#: mean zone bytes (max-over-mean trigger).
SPLIT_THRESHOLD = 3.0
#: Zone rebalances per level per epoch.
MAX_SPLITS_PER_EPOCH = 1
#: Extra replicas granted to each hot sphere per boost.
BOOST_REPLICAS = 1
#: Hot spheres boosted per level per epoch.
MAX_BOOSTS_PER_EPOCH = 8
#: Relay peers a retrieval request fans out through.
RELAY_FANOUT = 2


def adaptation_plane(overlay) -> CANNetwork | None:
    """The overlay if it is a CAN, else a *metered* ``None``.

    Every miss increments ``overlay.plane.adaptation.missing`` (plus a
    per-backend-class counter), so a deployment whose control loop is
    quietly skipped is visible in any metrics snapshot.
    """
    if isinstance(overlay, CANNetwork):
        return overlay
    metrics = obs_registry.metrics()
    metrics.counter("overlay.plane.adaptation.missing").inc()
    metrics.counter(
        f"overlay.plane.adaptation.missing.{type(overlay).__name__}"
    ).inc()
    return None


@dataclass(frozen=True)
class AdaptConfig:
    """The load-adaptation control loop's one setting.

    Attributes
    ----------
    epoch_queries:
        Range queries per adaptation epoch (0 = only explicit
        :meth:`AdaptationController.run_epoch` calls): an integer >= 0.
        Floats (``2.5`` would tick through float modulo, ``nan``
        never) and bools are refused.
    """

    epoch_queries: int = 16

    def __post_init__(self) -> None:
        check_count(self.epoch_queries, "epoch_queries", floor=0)


@dataclass(frozen=True)
class AdaptationDecision:
    """One recorded control action.

    ``action`` is ``"split"`` (``subject`` = hot node id, ``targets`` =
    the receiving node), ``"boost"`` (``subject`` = entry id,
    ``targets`` = new holder node ids) or ``"shed"`` (``subject`` =
    entry id, ``targets`` = releasing node ids).
    """

    epoch: int
    level: str
    action: str
    subject: int
    targets: tuple[int, ...]

    def as_tuple(self) -> tuple:
        """Hashable identity for replay-determinism comparisons."""
        return (self.epoch, self.level, self.action, self.subject, self.targets)

    def to_record(self) -> dict:
        """JSON-safe form for reports."""
        return {
            "epoch": self.epoch,
            "level": self.level,
            "action": self.action,
            "subject": self.subject,
            "targets": list(self.targets),
        }


class AdaptationController:
    """Per-network adaptation state machine.

    Parameters
    ----------
    network:
        A :class:`repro.core.network.HyperMNetwork`.
    config:
        :class:`AdaptConfig`; defaults to the standard operating point.
    """

    def __init__(self, network, config: AdaptConfig | None = None):
        self.network = network
        self.config = config or AdaptConfig()
        self.epochs = 0
        self.decisions: list[AdaptationDecision] = []
        self._queries_seen = 0
        #: per level: last epoch's ``{entry_id: heat}`` snapshot.
        self._prev_heat: dict = {}
        #: per level: entry ids currently carrying boosted replicas.
        self._boosted: dict = {}
        #: ``(responder_peer, origin_peer) -> item ids already shipped``.
        self._sent: dict[tuple[int, int], set[int]] = {}
        for overlay in network.overlays.values():
            plane = adaptation_plane(overlay)
            if plane is not None:
                plane.route_penalty = self.node_penalty

    # -- quality signals ------------------------------------------------------

    def node_penalty(self, node_id: int) -> float:
        """Routing tie-break penalty: the node's retransmits + drops."""
        load = self.network.fabric.load.node_load(node_id)
        return float(load.retransmits + load.drops)

    def peer_quality(self, peer_id: int) -> float:
        """``1 / (1 + retransmits + drops)`` over the peer's nodes.

        SNIPPETS-style link quality: a peer whose radio history is clean
        scores 1.0 and decays towards 0 as its fabric nodes accumulate
        retransmissions and dropped frames.
        """
        ledger = self.network.fabric.load
        bad = 0
        for level in self.network.levels:
            node_id = self.network._overlay_node.get((level, peer_id))
            if node_id is None:
                continue
            load = ledger.node_load(node_id)
            bad += load.retransmits + load.drops
        return 1.0 / (1.0 + float(bad))

    def retrieval_node(self, peer_id: int) -> int:
        """The peer's least-loaded live overlay node (byte totals, id tie).

        Spreads retrieval traffic across every level's interface instead
        of pinning all of it to the level-0 node — the single biggest
        peer-load equalizer on skewed workloads.
        """
        network = self.network
        ledger = network.fabric.load
        nodes = []
        for level in network.levels:
            node_id = network._overlay_node.get((level, peer_id))
            if node_id is None:
                continue
            overlay = network.overlays[level]
            if node_id not in overlay.node_ids:
                continue  # handed over by a graceful departure
            nodes.append(node_id)
        if not nodes:
            return network.overlay_node(network.levels[0], peer_id)
        return min(nodes, key=ledger.least_loaded)

    # -- quality-scored multicast ---------------------------------------------

    def relay_plan(self, peers: list[int]) -> list[tuple[int, tuple[int, ...]]]:
        """Fan a contact list out through the highest-quality peers.

        Returns ``[(target, children), ...]``: each target is contacted
        directly; a non-empty ``children`` tuple means the target relays
        the request onward to those peers. With at most
        :data:`RELAY_FANOUT` targets, everyone is contacted flat. Relays
        are the top-quality peers (ties broken by id); the rest are
        assigned round-robin in sorted order, so the plan is
        deterministic.
        """
        if len(peers) <= RELAY_FANOUT:
            return [(peer_id, ()) for peer_id in peers]
        ranked = sorted(
            peers, key=lambda pid: (-self.peer_quality(pid), pid)
        )
        relays = ranked[:RELAY_FANOUT]
        children: dict[int, list[int]] = {relay: [] for relay in relays}
        relay_set = set(relays)
        rest = sorted(pid for pid in peers if pid not in relay_set)
        for index, peer_id in enumerate(rest):
            children[relays[index % RELAY_FANOUT]].append(peer_id)
        return [(relay, tuple(children[relay])) for relay in relays]

    def filter_new(
        self, responder: int, origin: int, item_ids: list[int]
    ) -> list[int]:
        """Item ids ``responder`` has not yet delivered to ``origin``."""
        sent = self._sent.get((responder, origin))
        if not sent:
            return list(item_ids)
        return [iid for iid in item_ids if iid not in sent]

    def mark_delivered(
        self, responder: int, origin: int, item_ids: list[int]
    ) -> None:
        """Record a delivered response so repeats ship scalars only."""
        if not item_ids:
            return
        self._sent.setdefault((responder, origin), set()).update(item_ids)

    # -- the control loop -----------------------------------------------------

    def note_query(self) -> bool:
        """Count one range query; runs an epoch on the configured cadence."""
        self._queries_seen += 1
        every = self.config.epoch_queries
        if every < 1 or self._queries_seen % every:
            return False
        self.run_epoch()
        return True

    def run_epoch(self) -> list[AdaptationDecision]:
        """Snapshot every level's load and apply every triggered action.

        Each level's overlay is consulted through
        :func:`adaptation_plane`; levels not on CAN are skipped (the miss
        is metered) so mixed-backend deployments adapt where they can.
        """
        network = self.network
        epoch = self.epochs
        made: list[AdaptationDecision] = []
        for level in network.levels:
            plane = adaptation_plane(network.overlays[level])
            if plane is None:
                continue  # metered degradation: backend has no plane
            made.extend(self._rebalance(epoch, level, plane))
            made.extend(self._retune_replication(epoch, level, plane))
        self.decisions.extend(made)
        self.epochs += 1
        return made

    def _rebalance(self, epoch, level, plane) -> list[AdaptationDecision]:
        """Rebalance owners whose traffic exceeds the max-over-mean threshold."""
        snapshot = plane.load_snapshot()
        if len(snapshot) < 2:
            return []
        loads = sorted(
            ((load, node_id) for node_id, load in snapshot.items()),
            key=lambda pair: (-pair[0], pair[1]),
        )
        mean = sum(load for load, __ in loads) / len(loads)
        if mean <= 0.0:
            return []
        made: list[AdaptationDecision] = []
        for load, node_id in loads[:MAX_SPLITS_PER_EPOCH]:
            if load <= SPLIT_THRESHOLD * mean:
                break
            target = plane.rebalance_hot(int(node_id))
            if target is not None:
                made.append(
                    AdaptationDecision(
                        epoch, str(level), "split", int(node_id), (int(target),)
                    )
                )
        return made

    def _retune_replication(self, epoch, level, plane) -> list[AdaptationDecision]:
        """Boost spheres whose heat grew this epoch; shed the gone-cold."""
        store = plane.level_store
        heat = store.sphere_heat()
        previous = self._prev_heat.get(level)
        self._prev_heat[level] = heat
        if previous is None:
            return []  # first epoch establishes the baseline
        deltas = {
            entry_id: count - previous.get(entry_id, 0)
            for entry_id, count in heat.items()
        }
        made: list[AdaptationDecision] = []
        boosted = self._boosted.setdefault(level, set())
        hot = sorted(
            (eid for eid, delta in deltas.items() if delta > 0),
            key=lambda eid: (-deltas[eid], eid),
        )[:MAX_BOOSTS_PER_EPOCH]
        for entry_id in hot:
            added = plane.boost_replication(
                store.row_of(entry_id), BOOST_REPLICAS
            )
            if added:
                boosted.add(entry_id)
                made.append(
                    AdaptationDecision(
                        epoch, str(level), "boost",
                        int(entry_id), tuple(added),
                    )
                )
        cold = sorted(
            eid for eid in boosted
            if eid in heat and deltas.get(eid, 0) == 0
        )
        for entry_id in cold:
            shed = plane.shed_replication(store.row_of(entry_id))
            boosted.discard(entry_id)
            if shed:
                made.append(
                    AdaptationDecision(
                        epoch, str(level), "shed",
                        int(entry_id), tuple(shed),
                    )
                )
        # Entries retracted or tombstoned underneath us stop being tracked.
        for entry_id in sorted(boosted):
            if entry_id not in heat:
                boosted.discard(entry_id)
        return made

    # -- introspection --------------------------------------------------------

    def decision_log(self) -> list[dict]:
        """Every decision as a JSON-safe record, in order."""
        return [decision.to_record() for decision in self.decisions]

    def snapshot(self) -> dict:
        """Counters for reports and :meth:`HyperMNetwork.stats`."""
        counts = {"split": 0, "boost": 0, "shed": 0}
        for decision in self.decisions:
            counts[decision.action] += 1
        return {
            "epochs": self.epochs,
            "queries_seen": self._queries_seen,
            "decisions": counts,
            "boosted_spheres": sum(
                len(entries) for entries in self._boosted.values()
            ),
        }
