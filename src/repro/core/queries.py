"""Range and point query processing (paper Section 4.1).

A range query runs in two phases:

* **Index phase** — the query is translated into each published wavelet
  subspace (Theorem 3.1 scales its radius by ``2^-(log d - l)/2``), every
  cluster sphere the scaled query intersects is collected, and Eq. 1
  scores each peer; scores aggregate across levels by minimum.
  Theorem 4.1 guarantees no true answer's peer is pruned.
* **Retrieval phase** — the top-scoring peers are contacted directly and
  filter their items with the *original* query, so precision is 100%;
  recall is bounded only by how many peers are contacted.

The index phase is written once, as ``plan → candidates → score →
aggregate``: :func:`level_plan` translates the query, a *candidate
source* fetches each level's spheres, :func:`repro.core.scoring.
level_scores` evaluates Eq. 1 and :func:`score_peers` joins the levels.
Where candidates come from is the only thing that varies. A source is
any object with ``fetch(index, level, key, radius) -> Fetched`` (one
level of a range plan) and ``probe(index, level, key, radius) ->
(candidates, hops)`` (one k-NN discovery look-up):
:class:`RoutedSource` walks the overlays as the paper's protocol does,
and :class:`repro.serve.batch.StoreSource` reads the co-located,
generation-cached level stores (``index_hops == 0``). The k-NN driver
(:mod:`repro.core.knn`), the serving tier and the scale harness are
built from the same pieces.
"""

from __future__ import annotations

from functools import lru_cache, reduce
from typing import NamedTuple

import numpy as np

from repro import runtime
from repro.core.results import RangeQueryResult, sort_items_by_distance
from repro.core.scoring import (
    LevelScoreTable,
    aggregate_scores,
    check_policy,
    level_scores,
    partial_confidence,
    rank_peers,
)
from repro.exceptions import EmptyNetworkError, QueryError
from repro.faults.resilience import reliable_send, tombstone_peer
from repro.net.messages import MessageKind, vector_message_size
from repro.obs import registry as obs_registry
from repro.utils.validation import (
    check_peer_budget,
    check_positive,
    check_vector,
)
from repro.wavelets.bounds import key_space_radius, radius_scale, to_unit_cube
from repro.wavelets.multiresolution import decompose


@lru_cache(maxsize=512)
def _translate_query_cached(levels: tuple, query_bytes: bytes) -> tuple:
    """Decompose a query and map it into each level's key space, memoized.

    The key is the raw query bytes plus the level tuple, so repeated
    queries with the same vector — the k-NN heuristic followed by its
    exact refinement, recall sweeps re-running one query against many
    ``max_peers`` settings, a hot served stream — skip the DWT and affine
    mapping entirely. Cached arrays are marked read-only: every consumer
    treats them as values, and the flag turns an accidental in-place edit
    into an error instead of silent cache corruption.
    """
    query = np.frombuffer(query_bytes, dtype=np.float64)
    decomposition = decompose(query)
    keys = []
    for level in levels:
        key = np.clip(to_unit_cube(decomposition[level], level), 0.0, 1.0)
        key.setflags(write=False)
        keys.append(key)
    return tuple(keys)


@lru_cache(maxsize=512)
def _level_radius(dimensionality: int, level, epsilon: float) -> float:
    """The Theorem 3.1 key-space radius of an ``epsilon`` ball, memoized."""
    return key_space_radius(epsilon * radius_scale(dimensionality, level), level)


def translation_cache_info() -> dict:
    """Counters of the (process-wide) query translation cache, JSON-safe."""
    info = _translate_query_cached.cache_info()
    return {
        "size": info.currsize,
        "capacity": info.maxsize,
        "hits": info.hits,
        "misses": info.misses,
    }


def resolve_origin(network, origin_peer: int | None) -> int:
    """The querying peer: ``origin_peer``, or the first online peer."""
    if origin_peer is None:
        for peer_id, peer in network.peers.items():
            if peer.online:
                return peer_id
        raise EmptyNetworkError("network has no online peers")
    if origin_peer not in network.peers:
        raise QueryError(f"unknown origin peer {origin_peer}")
    if not network.peers[origin_peer].online:
        raise QueryError(f"origin peer {origin_peer} has left the network")
    return origin_peer


def level_plan(
    dimensionality: int, levels, query: np.ndarray,
    epsilon: float | None = None,
) -> dict:
    """Translate a query into every level: ``{level: (key, radius)}``.

    ``key`` is the query centre in the level's key space (memoized DWT +
    affine map) and ``radius`` the Theorem 3.1 key-space radius of an
    ``epsilon`` ball (scaled by ``2^-(log d - l)/2``); ``None`` when no
    ``epsilon`` is given — the k-NN driver discovers its own radii.
    """
    query = np.ascontiguousarray(query, dtype=np.float64)
    levels = tuple(levels)
    keys = _translate_query_cached(levels, query.tobytes())
    return {
        level: (key, None if epsilon is None else _level_radius(
            dimensionality, level, epsilon
        ))
        for level, key in zip(levels, keys)
    }


class Fetched(NamedTuple):
    """One level's candidate spheres plus what fetching them cost."""

    #: A :class:`repro.index.CandidateSet`; ``None`` when the level's
    #: reply was lost despite retries and the query must degrade.
    candidates: object
    #: Overlay hops charged, re-queries included.
    hops: int = 0
    attempts: int = 1
    routing_hops: int = 0
    flood_hops: int = 0


class RoutedSource:
    """Candidates by overlay walk from the origin peer's node.

    The paper's protocol: a multicast range query per level collects
    every cluster sphere the query ball intersects, and its hops are the
    index cost.
    """

    def __init__(self, network, origin_peer: int):
        self.network = network
        self.origin_peer = origin_peer

    def _walk(self, level, key, radius):
        overlay = self.network.overlays[level]
        node = self.network.overlay_node(level, self.origin_peer)
        return overlay.range_query(node, key, radius)

    def probe(self, index: int, level, key, radius: float):
        """One walk, never lost: ``(candidates, hops)`` (k-NN discovery)."""
        receipt = self._walk(level, key, radius)
        return receipt.entries, receipt.total_hops

    def fetch(self, index: int, level, key, radius: float) -> Fetched:
        """One level of a range plan, re-queried while its reply is lost.

        The overlay walk itself is synchronous; what loss can claim is
        the aggregated reply flowing back to the querier. Each lost reply
        costs a timeout, a capped-backoff wait, and a full re-query (hops
        re-charged) until the retry budget runs out.
        """
        injector = self.network.fabric.faults
        if injector is None:
            receipt = self._walk(level, key, radius)
            return Fetched(
                receipt.entries, receipt.total_hops, 1,
                receipt.routing_hops, receipt.flood_hops,
            )
        policy = injector.plan.retry
        hops = 0
        for attempt in range(1, policy.max_attempts + 1):
            wait = policy.wait_before_attempt(attempt)
            if wait > 0.0:
                injector.count("retries")
                scheduler = self.network.fabric.scheduler
                scheduler.run_until(scheduler.now + wait)
            receipt = self._walk(level, key, radius)
            hops += receipt.total_hops
            if not injector.index_response_lost():
                return Fetched(
                    receipt.entries, hops, attempt,
                    receipt.routing_hops, receipt.flood_hops,
                )
            injector.count("timeouts")
        return Fetched(None, hops, policy.max_attempts)


def score_peers(per_level: dict, policy: str) -> dict[int, float]:
    """Steps s1/s2's join: aggregate per-level Eq. 1 tables across levels."""
    recorder = runtime.current.tracer
    with recorder.span("score", policy=policy) as span:
        aggregated = aggregate_scores(per_level, policy=policy)
        if recorder.enabled:
            # Peer arrays only: counting must not force Eq. 1 for the
            # peers the join just dropped.
            candidates = reduce(np.union1d, (
                LevelScoreTable.of(scores).peers
                for scores in per_level.values()
            ), np.empty(0, dtype=np.int64))
            values = sorted(aggregated.values())
            span.set(
                peers_scored=len(aggregated),
                peers_pruned=len(candidates) - len(aggregated),
                score_min=values[0] if values else 0.0,
                score_max=values[-1] if values else 0.0,
                score_mean=(
                    sum(values) / len(values) if values else 0.0
                ),
            )
    return aggregated


def index_phase(
    network,
    query: np.ndarray,
    epsilon: float,
    *,
    origin_peer: int,
    aggregation: str | None = None,
    info: dict | None = None,
    source=None,
) -> tuple[dict[int, float], int]:
    """Run the index phase; returns (aggregated peer scores, index hops).

    ``source`` is where candidates come from (module docstring); the
    default walks the overlays from ``origin_peer``. ``info``, when
    given, is filled with the degradation accounting the fault-aware
    callers need: ``levels_total``, ``levels_answered`` (a level goes
    unanswered when its index reply is lost despite retries), and
    ``index_attempts``. On a clean fabric every level answers on the
    first attempt.
    """
    recorder = runtime.current.tracer
    with recorder.span("translate", levels=len(network.levels)):
        plan = level_plan(
            network.dimensionality, network.levels, query, epsilon
        )
    if source is None:
        source = RoutedSource(network, origin_peer)
    per_level: dict = {}
    hops = 0
    levels_answered = 0
    index_attempts = 0
    for index, (level, (key, radius)) in enumerate(plan.items()):
        with recorder.span(
            f"sphere_filter[{level}]", level=str(level)
        ) as span:
            got = source.fetch(index, level, key, radius)
            hops += got.hops
            index_attempts += got.attempts
            if got.candidates is None:
                # Level reply lost despite retries: score without it.
                # Min-aggregation over fewer levels only *admits* extra
                # candidates (Theorem 4.1 direction stays safe).
                span.set(
                    radius=radius, unanswered=True, attempts=got.attempts
                )
                continue
            levels_answered += 1
            stats: dict = {}
            per_level[level] = level_scores(
                got.candidates, key, radius, stats=stats
            )
            if recorder.enabled:
                # ``len`` is the table's deferred peer sort: traced only.
                span.set(
                    radius=radius,
                    candidates=stats["candidates"],
                    pruned=stats["pruned"],
                    surviving=stats["surviving"],
                    peers=len(per_level[level]),
                    routing_hops=got.routing_hops,
                    flood_hops=got.flood_hops,
                )
    if info is not None:
        info["levels_total"] = len(plan)
        info["levels_answered"] = levels_answered
        info["index_attempts"] = index_attempts
    policy = aggregation or network.config.aggregation
    return score_peers(per_level, policy), hops


def retrieval_node(network, peer_id: int) -> int:
    """The fabric node a peer serves retrieval from.

    Its level-0 overlay node, or with an adaptation controller attached
    its least-loaded overlay interface
    (:meth:`~repro.overlay.adapt.AdaptationController.retrieval_node`).
    """
    controller = network.adaptation
    if controller is not None:
        return controller.retrieval_node(peer_id)
    return network.home_node(peer_id)


def contact_peers(
    network,
    ranked: list[tuple[int, float]],
    *,
    origin_peer: int,
    max_peers: int | None,
) -> tuple[list[int], int, list[int]]:
    """Charge direct-contact requests to the fabric.

    Returns ``(reached peer ids, request messages, failed peer ids)``.
    Direct retrieval is modelled as one request per contacted peer over
    the MANET radio (peers in a Hyper-M scenario are within a shared
    space; no overlay routing is needed once the address is known).
    Offline peers (MANET churn) still consume a contact attempt — the
    querier learns of the failure only after the request times out — but
    return nothing. Response traffic is charged separately, sized by the
    items actually returned (:func:`send_response`).

    Every request goes through :func:`repro.faults.resilience.
    reliable_send` (one transmission on a clean fabric; timeout, capped
    backoff and a retry budget under a fault injector). Under an
    injector, failures feed its failure detector, and peers past the
    consecutive-failure threshold get their dangling spheres tombstoned
    out of the index (:func:`repro.faults.resilience.tombstone_peer`).

    The requests follow a relay plan: without adaptation every target
    is a relay with no children, i.e. flat unicast from the origin.
    With an :class:`~repro.overlay.adapt.AdaptationController` attached
    (``network.adaptation``) the plan is a quality-scored relay tree:
    the origin contacts the top-quality peers, each of which forwards
    the request to its assigned children, so the origin's radio pays
    for a few frames instead of one per target. A relay that cannot be
    reached (lost request or offline device) degrades gracefully: its
    children fall back to direct contact from the origin, so the reached
    set never shrinks versus the flat scheme. A relay frame carries one
    scalar per child; with no children it is the plain request.
    """
    injector = network.fabric.faults
    controller = network.adaptation
    attempts = [peer_id for peer_id, __ in ranked]
    if max_peers is not None:
        attempts = attempts[:max_peers]
    if controller is None:
        plan = [(peer_id, ()) for peer_id in attempts]
    else:
        plan = controller.relay_plan(attempts)
    origin_node = retrieval_node(network, origin_peer)
    request_size = vector_message_size(network.dimensionality, scalars=2)
    messages = 0
    reached: list[int] = []
    failed: list[int] = []

    def deliver(source_node: int, peer_id: int, size: int) -> bool:
        """Send one request frame; returns delivery, accrues messages."""
        nonlocal messages
        target_node = retrieval_node(network, peer_id)
        if target_node == source_node:
            return True
        outcome = reliable_send(
            network.fabric, source_node, target_node,
            MessageKind.RETRIEVE, size,
        )
        messages += outcome.attempts
        return outcome.delivered

    def settle(peer_id: int, delivered: bool) -> bool:
        """Classify one contact attempt after its request transmission."""
        if delivered and network.peers[peer_id].online:
            reached.append(peer_id)
            if injector is not None:
                injector.note_contact_success(peer_id)
            return True
        # The request never got through, or reached a departed device.
        failed.append(peer_id)
        if injector is not None:
            injector.note_contact_failure(peer_id)
        return False

    for relay_id, children in plan:
        relay_size = vector_message_size(
            network.dimensionality, scalars=2 + len(children)
        )
        relay_ok = settle(
            relay_id, deliver(origin_node, relay_id, relay_size)
        )
        source = origin_node
        if relay_ok and children:
            source = retrieval_node(network, relay_id)
        for child_id in children:
            settle(child_id, deliver(source, child_id, request_size))
    if injector is not None:
        for suspect in injector.drain_suspects():
            tombstone_peer(network, suspect)
    return reached, messages, failed


def send_response(
    network, origin_peer: int, peer_id: int, items: list
) -> tuple[bool, int]:
    """Charge one response carrying ``items`` (result vectors).

    Returns ``(delivered, messages)``. Each item ships its full vector
    plus id/distance metadata; an empty response is still an
    acknowledgement (header-sized); a peer answering itself sends
    nothing. The frame goes through :func:`repro.faults.resilience.
    reliable_send`: one charged message on a clean fabric, retries per
    the plan's :class:`~repro.faults.plan.RetryPolicy` under an
    injector. An undelivered response means the querier never sees the
    items — the caller drops them and degrades the query's confidence.

    With an adaptation controller attached, the response is
    *delta-encoded* per (responder, querier) pair: item vectors the
    querier already received from this responder ship as scalar ids +
    distances only (the querier re-uses its cached copies), so a hot
    peer answering the same hot queries repeatedly stops re-paying the
    full vector payload every round. Delivery is recorded only when the
    frame actually arrives.
    """
    controller = network.adaptation
    origin_node = retrieval_node(network, origin_peer)
    target_node = retrieval_node(network, peer_id)
    if target_node == origin_node:
        return True, 0
    new_ids = None
    vectors = len(items)
    if controller is not None:
        new_ids = controller.filter_new(
            peer_id, origin_peer, [int(item.item_id) for item in items]
        )
        vectors = len(new_ids)
    size = vector_message_size(
        network.dimensionality * vectors, scalars=2 * len(items)
    )
    outcome = reliable_send(
        network.fabric, target_node, origin_node, MessageKind.DATA, size
    )
    if outcome.delivered and new_ids is not None:
        controller.mark_delivered(peer_id, origin_peer, new_ids)
    return outcome.delivered, outcome.attempts


def retrieval_phase(
    network,
    ranked: list[tuple[int, float]],
    search,
    *,
    origin_peer: int,
    max_peers: int | None,
) -> tuple[list, list[int], list[int], int]:
    """Step s3: contact ranked peers and collect what ``search`` finds.

    The one retrieval step behind range queries (:func:`finish_range`,
    and through it the batched serving tier) and the k-NN heuristic
    (:func:`repro.core.knn.run_knn`): requests go out through
    :func:`contact_peers`, each reached peer answers with
    ``search(peer_id)`` (its locally filtered items) in one
    :func:`send_response`, and a reply lost despite retries counts as a
    failed contact. Returns ``(items, answered, failed, messages)``;
    each attempted peer is in exactly one of ``answered`` and ``failed``.
    """
    injector = network.fabric.faults
    items = []
    answered: list[int] = []
    contacted, messages, failed = contact_peers(
        network, ranked, origin_peer=origin_peer, max_peers=max_peers
    )
    for peer_id in contacted:
        found = search(peer_id)
        delivered, response_messages = send_response(
            network, origin_peer, peer_id, found
        )
        messages += response_messages
        if not delivered:
            # Request arrived, but the reply was lost despite
            # retries: the items never reach the querier.
            failed.append(peer_id)
            injector.note_contact_failure(peer_id)
            continue
        answered.append(peer_id)
        items.extend(found)
    return items, answered, failed, messages


def finish_range(
    network,
    query: np.ndarray,
    epsilon: float,
    aggregated: dict[int, float],
    *,
    origin_peer: int,
    max_peers: int | None,
    index_hops: int = 0,
    levels_answered: int | None = None,
    searched: dict | None = None,
    ranked: list | None = None,
) -> RangeQueryResult:
    """Retrieval phase + result assembly for one scored range query.

    ``searched``, when given, holds every possible contact's hits (the
    serving tier's one scan per peer); otherwise each reached peer runs
    its own :meth:`~repro.core.peer.HyperMPeer.range_search`. ``ranked``
    is ``rank_peers(aggregated)`` when the caller already has it.
    """
    if searched is None:
        def search(peer_id: int) -> list:
            return network.peers[peer_id].range_search(query, epsilon)
    else:
        search = searched.__getitem__
    if ranked is None:
        ranked = rank_peers(aggregated)
    with runtime.current.tracer.span("contact_peers") as contact_span:
        items, answered, failed, messages = retrieval_phase(
            network, ranked, search,
            origin_peer=origin_peer, max_peers=max_peers,
        )
        contact_span.set(
            ranked=len(ranked),
            reached=len(answered),
            failed=len(failed),
            messages=messages,
            items=len(items),
        )
    n_levels = len(network.levels)
    confidence = partial_confidence(
        n_levels if levels_answered is None else levels_answered,
        n_levels, len(answered), len(answered) + len(failed),
    )
    return RangeQueryResult(
        items=sort_items_by_distance(items),
        peer_scores=aggregated,
        peers_contacted=answered,
        failed_contacts=failed,
        index_hops=index_hops,
        retrieval_messages=messages,
        confidence=confidence,
        degraded=confidence < 1.0,
    )


def range_query(
    network,
    query: np.ndarray,
    epsilon: float,
    *,
    max_peers: int | None = None,
    origin_peer: int | None = None,
    aggregation: str | None = None,
) -> RangeQueryResult:
    """Retrieve all items within ``epsilon`` of ``query`` (best effort).

    Parameters
    ----------
    network:
        A published :class:`repro.core.network.HyperMNetwork`.
    query:
        Query vector in the original ``d``-dimensional unit cube.
    epsilon:
        Query radius in the original space.
    max_peers:
        Contact at most this many of the top-scoring peers (the paper's
        Figure 10a x-axis); ``None`` contacts every positive-score peer,
        ``0`` nobody. Anything but ``None`` or a non-negative integer is
        rejected before any message is charged, as is an unknown
        ``aggregation``.
    origin_peer:
        Peer issuing the query (defaults to the first peer).
    aggregation:
        Override the cross-level score policy for this query.
    """
    query = check_vector(query, "query", dim=network.dimensionality)
    check_positive(epsilon, "epsilon", strict=False)
    check_peer_budget(max_peers, "max_peers")
    check_policy(aggregation or network.config.aggregation)
    origin = resolve_origin(network, origin_peer)

    recorder = runtime.current.tracer
    fault_info: dict = {}
    with recorder.span(
        "query", type="range", epsilon=float(epsilon), origin=origin
    ) as query_span, runtime.current.flight.span(
        "query", type="range", origin=origin
    ) as flight_op:
        aggregated, index_hops = index_phase(
            network, query, epsilon, origin_peer=origin,
            aggregation=aggregation, info=fault_info,
        )
        result = finish_range(
            network, query, epsilon, aggregated,
            origin_peer=origin, max_peers=max_peers, index_hops=index_hops,
            levels_answered=fault_info["levels_answered"],
        )
        summary = {
            "index_hops": index_hops,
            "items": len(result.items),
            "peers_contacted": len(result.peers_contacted),
        }
        query_span.set(**summary)
        flight_op.set(**summary)
    metrics = obs_registry.metrics()
    metrics.counter("query.range.count").inc()
    metrics.counter("query.range.items").inc(len(result.items))
    metrics.counter("query.range.failed_contacts").inc(
        len(result.failed_contacts)
    )
    metrics.histogram("query.range.index_hops").observe(index_hops)
    metrics.histogram("query.range.peers_contacted").observe(
        len(result.peers_contacted)
    )
    metrics.histogram("query.range.retrieval_messages").observe(
        result.retrieval_messages
    )
    injector = network.fabric.faults
    if injector is not None and not injector.passthrough:
        # Fault-only telemetry: recorded solely when faults can actually
        # fire, so null-plan metric snapshots stay byte-identical.
        metrics.histogram("query.range.confidence").observe(result.confidence)
        if result.degraded:
            metrics.counter("query.range.degraded").inc()
    if network.adaptation is not None:
        # Epoch tick last: any zone rebalance or replication retune the
        # controller triggers can no longer affect this query's results.
        network.adaptation.note_query()
    return result


def point_query(
    network,
    query: np.ndarray,
    *,
    origin_peer: int | None = None,
    max_peers: int | None = None,
) -> RangeQueryResult:
    """Exact-match query: a range query of radius zero.

    Index-phase clusters must *contain* the query point at every level;
    contacted peers return items at distance 0.
    """
    return range_query(
        network, query, 0.0, max_peers=max_peers, origin_peer=origin_peer
    )
