"""Resilience mechanics: reliable sends, abrupt crashes, tombstoning.

The counterpart of :mod:`repro.faults.injector`: the injector breaks
messages, this module is how the protocol copes —

* :func:`reliable_send` retries a query-plane message with capped
  exponential backoff until delivered or the retry budget runs out,
  advancing the fabric's virtual clock while it waits (so a retry can
  outlive a partition window).
* :func:`crash_peer` is the *only* abrupt-failure entry point: the peer
  goes offline and its overlay nodes fall silent, with **no** overlay
  cleanup — zones are not handed off and published spheres dangle, which
  is exactly the MANET scenario Theorem 4.1 was never exercised under.
  (Clean departures stay on :meth:`repro.core.network.HyperMNetwork
  .depart`.)
* :func:`tombstone_peer` feeds a crashed peer's dangling spheres into the
  level stores' tombstone/compaction machinery once the failure detector
  gives up on the peer, so later queries stop wasting contacts on it.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import runtime
from repro.exceptions import ValidationError
from repro.net.messages import MessageKind
from repro.obs import registry as obs_registry


@dataclass(frozen=True)
class SendOutcome:
    """Result of one :func:`reliable_send`.

    Attributes
    ----------
    delivered:
        Whether any attempt got through.
    attempts:
        Transmissions performed (each charged to the fabric).
    timeouts:
        Attempts that timed out (== failed attempts).
    backoff_time:
        Total virtual seconds spent waiting between attempts.
    """

    delivered: bool
    attempts: int
    timeouts: int
    backoff_time: float


#: Every clean-fabric send's outcome, shared: a frozen one per frame is slow.
_SENT_ONCE = SendOutcome(delivered=True, attempts=1, timeouts=0, backoff_time=0.0)


def reliable_send(
    fabric,
    source: int,
    destination: int,
    kind: MessageKind,
    size_bytes: int,
) -> SendOutcome:
    """Send with per-message timeout, capped backoff, and a retry budget.

    The one send path of a retrieval frame. Without an installed
    injector this is exactly one
    :meth:`~repro.net.network.Network.transmit` (``attempts == 1``).
    With one, each failed attempt counts a timeout, waits the plan's
    ``retry.wait_before_attempt`` virtual seconds (the fabric
    scheduler's clock advances via ``run_until``, so partition windows
    can close), and retries until delivered or the budget is spent.
    """
    injector = fabric.faults
    if injector is None:
        fabric.transmit(source, destination, kind, size_bytes)
        return _SENT_ONCE
    policy = injector.plan.retry
    metrics = obs_registry.metrics()
    waited = 0.0
    timeouts = 0
    for attempt in range(1, policy.max_attempts + 1):
        wait = policy.wait_before_attempt(attempt)
        if wait > 0.0:
            injector.count("retries")
            scheduler = fabric.scheduler
            scheduler.run_until(scheduler.now + wait)
            waited += wait
        if attempt > 1:
            # Tag the retry's flight edge with its attempt number, so
            # the routing tree distinguishes backoff re-sends from the
            # first transmission (no-op when recording is off).
            runtime.current.flight.mark_retry(attempt)
        if fabric.transmit(source, destination, kind, size_bytes):
            return SendOutcome(
                delivered=True,
                attempts=attempt,
                timeouts=timeouts,
                backoff_time=waited,
            )
        timeouts += 1
        injector.count("timeouts")
    metrics.counter("faults.send_failures").inc()
    return SendOutcome(
        delivered=False,
        attempts=policy.max_attempts,
        timeouts=timeouts,
        backoff_time=waited,
    )


def crash_peer(network, peer_id: int) -> None:
    """Abruptly crash ``peer_id``: no zone handoff, no summary withdrawal.

    The peer goes offline, and every one of its per-level overlay nodes
    is registered with the fabric's injector so all messages touching
    them are severed. Overlay structures are left exactly as they were —
    the realistic MANET failure the clean
    :meth:`~repro.core.network.HyperMNetwork.depart` path cannot model.

    Requires a fault injector on the fabric (install a
    :class:`repro.faults.plan.FaultPlan` first); abrupt failure is routed
    exclusively through this function.
    """
    injector = network.fabric.faults
    if injector is None:
        raise ValidationError(
            "abrupt crashes require a fault injector: call "
            "network.fabric.install_faults(FaultPlan(...)) first"
        )
    peer = network.peers.get(peer_id)
    if peer is None:
        raise ValidationError(f"unknown peer {peer_id}")
    peer.online = False
    node_ids = [
        network.overlay_node(level, peer_id) for level in network.levels
    ]
    injector.crash(peer_id, node_ids)


def tombstone_peer(network, peer_id: int) -> int:
    """Tombstone every dangling sphere a crashed peer left behind.

    Runs one vectorized peer-id column scan per level store and removes
    each of the peer's entries everywhere (all replicas), feeding the
    stores' tombstone/compaction machinery — a withdrawn sphere can never
    be scored again, and compaction reclaims the rows once past
    threshold. Returns the number of entries tombstoned across levels.
    """
    removed = 0
    for overlay in network.overlays.values():
        removed += overlay.level_store.remove_peer_entries(peer_id)
    if removed:
        obs_registry.metrics().counter("faults.tombstoned_entries").inc(
            removed
        )
        injector = network.fabric.faults
        if injector is not None:
            injector.count("tombstoned_entries", removed)
    return removed
