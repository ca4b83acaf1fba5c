"""Deterministic fault injection at the message-send boundary.

One :class:`FaultInjector` per fabric: :meth:`repro.net.network.Network
.transmit` consults it for every message, and the query/retrieval plane
asks it whether end-to-end responses survived. All randomness comes from
one private ``numpy`` generator seeded by the plan, drawn in strict call
order — the same plan, seed, and workload replay the exact same drops,
retransmits, and duplicates (the determinism the property tests pin).
Every decision is counted (:meth:`FaultInjector.snapshot`); with a
flight recorder on, each frame's fate is also a tagged edge.

Two delivery planes, one boundary
---------------------------------
* **Query plane** (``RETRIEVE``/``DATA`` messages, plus the synthetic
  per-level index responses): loss is *end-to-end*. A dropped message
  makes ``transmit`` return ``False`` and the caller must retry
  (:func:`repro.faults.resilience.reliable_send`) or degrade.
* **Overlay plane** (everything else): the simulator executes overlay
  routing synchronously, so a lost frame is modelled as the link layer
  retransmitting until it gets through — each retransmission is charged
  (messages, bytes, energy) but the message still arrives. Loss therefore
  inflates dissemination cost instead of silently corrupting the overlay.

Partition windows sever the query plane outright (retry backoff can carry
a send past the window's end — partitions heal); crashes registered via
:func:`repro.faults.resilience.crash_peer` sever every message touching a
crashed node.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.faults.plan import FaultPlan
from repro.net.messages import MessageKind
from repro.obs import registry as obs_registry

#: Message kinds whose loss is end-to-end (the caller sees the failure).
REACTIVE_KINDS = frozenset(
    {MessageKind.RETRIEVE, MessageKind.DATA, MessageKind.RESPONSE}
)

#: Consecutive failed contacts before a peer is presumed crashed and its
#: published spheres become eligible for tombstoning.
SUSPECT_THRESHOLD = 3


@dataclass(frozen=True)
class Verdict:
    """What the injector decided for one transmission."""

    delivered: bool = True
    copies: int = 1
    retransmits: int = 0
    reason: str = ""


_PASS = Verdict()


class FaultInjector:
    """Applies a :class:`repro.faults.plan.FaultPlan` to a fabric.

    Parameters
    ----------
    plan:
        The fault plan; ``FaultPlan()`` (the null plan) makes the
        injector a pure pass-through that never draws randomness.
    """

    def __init__(self, plan: FaultPlan | None = None):
        self.plan = plan if plan is not None else FaultPlan()
        self._rng = np.random.default_rng(self.plan.seed)
        self.crashed_nodes: set[int] = set()
        self.crashed_peers: set[int] = set()
        self.counters: dict[str, int] = {}
        self._consecutive_failures: dict[int, int] = {}
        self._suspects: list[int] = []
        self._tombstoned_peers: set[int] = set()

    # -- bookkeeping ---------------------------------------------------------

    @property
    def passthrough(self) -> bool:
        """True when no fault can currently fire (null plan, no crashes)."""
        return self.plan.is_null and not self.crashed_nodes

    def count(self, name: str, amount: int = 1) -> None:
        """Bump a local counter and mirror it into the obs registry."""
        self.counters[name] = self.counters.get(name, 0) + amount
        obs_registry.metrics().counter(f"faults.{name}").inc(amount)

    def snapshot(self) -> dict:
        """JSON-safe counter summary (sorted keys; diffs cleanly)."""
        return {
            "counters": {k: self.counters[k] for k in sorted(self.counters)},
            "crashed_peers": sorted(self.crashed_peers),
            "tombstoned_peers": sorted(self._tombstoned_peers),
        }

    # -- crash registry ------------------------------------------------------

    def crash(self, peer_id: int, node_ids) -> None:
        """Register an abrupt peer crash: all its nodes go silent."""
        self.crashed_peers.add(int(peer_id))
        self.crashed_nodes.update(int(n) for n in node_ids)
        self.count("crashes")

    def is_crashed_node(self, node_id: int) -> bool:
        """True when ``node_id`` belongs to a crashed peer."""
        return int(node_id) in self.crashed_nodes

    # -- the transmit boundary ----------------------------------------------

    def on_transmit(
        self, kind: MessageKind, source: int, destination: int, now: float
    ) -> Verdict:
        """Decide the fate of one transmission (called by ``transmit``)."""
        if self.passthrough:
            return _PASS
        reactive = kind in REACTIVE_KINDS
        if (
            source in self.crashed_nodes
            or destination in self.crashed_nodes
        ):
            self.count("crash_drops")
            return Verdict(delivered=False, reason="crashed endpoint")
        for window in self.plan.partitions:
            if window.severs(source, destination, now):
                self.count("partition_drops")
                if reactive:
                    return Verdict(delivered=False, reason="partitioned")
                # Overlay plane: the simulator's synchronous walk cannot
                # react; count the severed frame but let the op proceed.
                return _PASS
        delivered = True
        retransmits = 0
        loss = self.plan.loss
        if loss > 0.0:
            if reactive:
                if self._rng.random() < loss:
                    delivered = False
                    self.count("drops")
            else:
                # Link-layer ARQ: geometric retransmissions, capped.
                extra = int(self._rng.geometric(1.0 - loss)) - 1
                retransmits = min(extra, self.plan.max_link_retransmits)
                if retransmits:
                    self.count("link_retransmits", retransmits)
        copies = 1
        if delivered and self.plan.duplication > 0.0:
            if self._rng.random() < self.plan.duplication:
                copies = 2
                self.count("duplicates")
        if delivered and copies == 1 and not retransmits:
            return _PASS
        return Verdict(
            delivered=delivered, copies=copies, retransmits=retransmits
        )

    def index_response_lost(self) -> bool:
        """One Bernoulli(loss) draw for a per-level index-phase response.

        The overlay walk itself is synchronous; what can be lost is the
        aggregated reply flowing back to the querier. Never draws when
        the plan is lossless, preserving the zero-fault bit-identity.
        """
        if self.plan.loss <= 0.0:
            return False
        lost = bool(self._rng.random() < self.plan.loss)
        if lost:
            self.count("index_response_drops")
        return lost

    # -- failure detection ---------------------------------------------------

    def note_contact_failure(self, peer_id: int) -> bool:
        """Record one failed contact; True when the peer becomes suspect.

        A peer turns *suspect* when :data:`SUSPECT_THRESHOLD` consecutive
        contacts fail; it is then queued once for
        :meth:`drain_suspects`-driven tombstoning.
        """
        peer_id = int(peer_id)
        count = self._consecutive_failures.get(peer_id, 0) + 1
        self._consecutive_failures[peer_id] = count
        self.count("contact_failures")
        if (
            count >= SUSPECT_THRESHOLD
            and peer_id not in self._tombstoned_peers
        ):
            self._tombstoned_peers.add(peer_id)
            self._suspects.append(peer_id)
            return True
        return False

    def note_contact_success(self, peer_id: int) -> None:
        """Reset the consecutive-failure count after a successful contact."""
        self._consecutive_failures.pop(int(peer_id), None)

    def drain_suspects(self) -> list[int]:
        """Peers newly past the failure threshold (each reported once)."""
        suspects, self._suspects = self._suspects, []
        return suspects
