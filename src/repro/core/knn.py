"""k-nearest-neighbour heuristic (paper Section 4.2, Figure 5).

Summaries cannot pinpoint the k closest items, so Hyper-M estimates, per
wavelet level, the range-query radius ``ε_l`` whose *expected* retrieval is
``k`` items (inverting Eq. 8 numerically over the reachable cluster
spheres), runs those range queries, merges the per-level peer scores, and
requests from each of the top ``P`` peers a number of items proportional to
its normalised score, scaled by the tuning constant ``C`` (Figure 5,
step 8: ``no_items_p = C * k * score_p / sum``).

Reachability: the query initiator cannot see every cluster in the network
a-priori. We discover clusters with geometrically expanding overlay range
queries until the discovered spheres are expected to supply ``k`` items
(or the query covers the whole key space), then invert Eq. 8 over what was
found — every probe's hops are charged to the index cost.

Candidates come from a *candidate source* (:mod:`repro.core.queries`):
:func:`knn_query` walks the overlays (:class:`~repro.core.queries.
RoutedSource`), the serving tier hands :func:`run_knn` its cached
co-located store source, and both run this one driver. Query translation
is shared with the range path through :func:`repro.core.queries.
level_plan`'s cache, so the exact-refinement follow-up range queries
reuse the k-NN query's translated spheres instead of re-decomposing the
vector.
"""

from __future__ import annotations

import math

import numpy as np

from repro import runtime
from repro.core.queries import (
    RoutedSource,
    level_plan,
    range_query,
    resolve_origin,
    retrieval_phase,
    score_peers,
)
from repro.core.results import KnnResult, sort_items_by_distance
from repro.core.scoring import check_policy, level_scores, rank_peers
from repro.exceptions import QueryError
from repro.geometry.epsilon import estimate_epsilon_for_k, expected_items
from repro.obs import registry as obs_registry
from repro.utils.validation import check_peer_budget, check_vector
from repro.wavelets.bounds import coefficient_interval, radius_scale

#: First probe radius, as a fraction of the key-space diagonal.
_INITIAL_PROBE_FRACTION = 0.05


def _center_distances(keys: np.ndarray, center: np.ndarray) -> np.ndarray:
    """Key-space distance from ``center`` to each row of ``keys``."""
    diff = keys - center
    return np.sqrt(np.einsum("ij,ij->i", diff, diff))


def _discover_level(
    source, index: int, level, key: np.ndarray, k: float
) -> tuple[float, object, int]:
    """Expanding probes at one level; returns (epsilon, candidates, hops).

    Doubles the probe radius until the discovered cluster spheres are
    expected (Eq. 8) to contain ``k`` items, then inverts Eq. 8 for the
    final radius and issues the definitive look-up.
    """
    d = key.shape[0]
    diagonal = math.sqrt(d)
    eps = _INITIAL_PROBE_FRACTION * diagonal
    hops = 0
    probes = 0
    while True:
        candidates, probe_hops = source.probe(index, level, key, eps)
        hops += probe_hops
        probes += 1
        keys, radii, items, __, ___ = candidates.columns()
        dists = _center_distances(keys, key)
        if len(radii) and expected_items(eps, radii, items, dists, d) >= k:
            break
        if eps >= diagonal:
            break
        eps = min(2.0 * eps, diagonal)
    if len(radii):
        eps_star = estimate_epsilon_for_k(k, radii, items, dists, d)
        if eps_star < eps:
            eps = eps_star
            candidates, probe_hops = source.probe(index, level, key, eps)
            hops += probe_hops
            probes += 1
    runtime.current.tracer.annotate(probes=probes)
    return eps, candidates, hops


def _peers_to_contact(
    ranked: list[tuple[int, float]], k: int, top_p: int | None
) -> list[tuple[int, float]]:
    """Figure 5 step 4: smallest P whose cumulative score covers ``k`` items."""
    if top_p is not None:
        return ranked[:top_p]
    selected: list[tuple[int, float]] = []
    cumulative = 0.0
    for peer_id, score in ranked:
        selected.append((peer_id, score))
        cumulative += score
        if cumulative >= k:
            break
    return selected


def _peer_lower_bounds(
    dimensionality: int, plan: dict, discovered: dict, epsilon_per_level: dict
) -> dict[int, float]:
    """Per-peer lower bounds on original-space item distance.

    At each level, a peer's items lie inside its published cluster
    spheres (in key space), so ``max(0, ||q_key − center|| − radius)``
    lower-bounds the key-space distance to any item in that cluster;
    clusters *outside* the discovery radius ``ε_l`` are at key
    distance > ``ε_l``, so the per-peer level bound is the minimum of
    its visible clusters' bounds capped at ``ε_l``. Key-space
    distances convert to original-space lower bounds via the inverse
    Theorem 3.1 contraction (``× (hi − lo) / radius_scale``; the
    ``[0,1]`` clip only shrinks key distances, which keeps the bound
    sound), and the per-level bounds combine by max. Soundness
    assumes published summaries cover the peers' current items — the
    paper's model, and the serving tier's steady state.
    """
    bounds: dict[int, float] = {}
    for level, (center, __) in plan.items():
        sphere_keys, radii, __, peer_ids, ___ = discovered[level].columns()
        eps_l = float(epsilon_per_level[level])
        lo, hi = coefficient_interval(level)
        to_original = (hi - lo) / radius_scale(dimensionality, level)
        level_bounds: dict[int, float] = {}
        if len(peer_ids):
            dist = _center_distances(sphere_keys, center)
            row_bounds = np.maximum(dist - radii, 0.0)
            order = np.argsort(peer_ids, kind="stable")
            sorted_ids = peer_ids[order]
            starts = np.flatnonzero(
                np.r_[True, sorted_ids[1:] != sorted_ids[:-1]]
            )
            per_peer = np.minimum.reduceat(row_bounds[order], starts)
            level_bounds = {
                int(pid): float(lb)
                for pid, lb in zip(
                    sorted_ids[starts], per_peer, strict=True
                )
            }
        for peer_id in set(bounds) | set(level_bounds):
            level_lb = min(level_bounds.get(peer_id, eps_l), eps_l)
            candidate = level_lb * to_original
            if candidate > bounds.get(peer_id, 0.0):
                bounds[peer_id] = candidate
    return bounds


def check_knn_budget(k, c) -> None:
    """Refuse a ``k`` that is not an integer >= 1 or a non-finite ``C``.

    :class:`~repro.exceptions.QueryError`, raised before any frame is
    charged. ``k`` sizes and slices the answer, so a fractional or bool
    value is refused, not rounded; a NaN or infinite ``C`` would
    otherwise fail only after the index phase had run.
    """
    if isinstance(k, bool) or not isinstance(k, (int, np.integer)) or k < 1:
        raise QueryError(f"k must be an integer >= 1, got {k!r}")
    if not (c > 0 and math.isfinite(c)):
        raise QueryError(f"C must be a finite number > 0, got {c!r}")


def run_knn(
    network,
    query: np.ndarray,
    k: int,
    plan: dict,
    source,
    *,
    origin: int,
    c: float = 1.0,
    top_p: int | None = None,
    aggregation: str | None = None,
    early_stop: bool = False,
) -> tuple[KnnResult, int]:
    """Figure 5 over any candidate source: ``(result, peers skipped)``.

    The driver behind :func:`knn_query` and the serving tier. With
    ``early_stop`` the ranked peers are contacted one at a time and the
    loop ends once the remaining peers' Theorem 3.1 distance lower bounds
    (:func:`_peer_lower_bounds`) prove none can improve the current top
    ``k`` — top-k distances stay exact, the skipped peers' traffic is
    saved. Without it all selected peers go out in one
    :func:`~repro.core.queries.retrieval_phase` call, because a relay
    fan-out cannot be cut short. Either way retrieval is the range
    query's step s3, with :meth:`~repro.core.peer.HyperMPeer.
    nearest_items` as each peer's local search.
    """
    check_knn_budget(k, c)
    check_peer_budget(top_p, "top_p")
    check_policy(aggregation or network.config.aggregation)
    recorder = runtime.current.tracer
    per_level: dict = {}
    epsilon_per_level: dict = {}
    discovered: dict = {}
    index_hops = 0
    for index, (level, (key, __)) in enumerate(plan.items()):
        with recorder.span(
            f"sphere_filter[{level}]", level=str(level)
        ) as span:
            eps_l, candidates, hops = _discover_level(
                source, index, level, key, float(k)
            )
            index_hops += hops
            epsilon_per_level[level] = eps_l
            discovered[level] = candidates
            stats: dict | None = {} if recorder.enabled else None
            per_level[level] = level_scores(
                candidates, key, eps_l, stats=stats
            )
            if recorder.enabled:
                # ``len`` is the table's deferred peer sort: traced only.
                span.set(
                    epsilon=eps_l,
                    candidates=stats["candidates"],
                    pruned=stats["pruned"],
                    surviving=stats["surviving"],
                    peers=len(per_level[level]),
                    hops=hops,
                )

    aggregated = score_peers(
        per_level, aggregation or network.config.aggregation
    )
    selected = _peers_to_contact(rank_peers(aggregated), k, top_p)
    groups = [selected]
    suffix_min: list[float] = []
    if early_stop and selected:
        groups = [[pair] for pair in selected]
        bounds = _peer_lower_bounds(
            network.dimensionality, plan, discovered, epsilon_per_level
        )
        # suffix_min[i] = tightest bound among peers i..end: the
        # termination test must prove *every* remaining peer useless.
        suffix_min = [0.0] * len(selected)
        running = math.inf
        for position in range(len(selected) - 1, -1, -1):
            running = min(running, bounds.get(selected[position][0], 0.0))
            suffix_min[position] = running

    # Shares are allocated over the peers the querier *planned* to use;
    # requests to departed peers are simply lost (MANET churn).
    score_sum = sum(score for __, score in selected)
    scores = dict(selected)

    def search(peer_id: int) -> list:
        """Figure 5 step 8: the peer's ``C * k * score / sum`` nearest."""
        if score_sum > 0:
            share = scores[peer_id] / score_sum
        else:
            share = 1.0 / max(len(selected), 1)
        no_items = int(math.ceil(c * k * share))
        return network.peers[peer_id].nearest_items(query, no_items)

    items: list = []
    contacted: list[int] = []
    failed: list[int] = []
    messages = 0
    skipped = 0
    with recorder.span("contact_peers") as contact_span:
        for position, group in enumerate(groups):
            if suffix_min and len(items) >= k and suffix_min[position] > (
                sorted(item.distance for item in items)[k - 1]
            ):
                skipped = len(selected) - position
                break
            found, answered, lost, group_messages = retrieval_phase(
                network, group, search, origin_peer=origin, max_peers=None
            )
            items.extend(found)
            contacted.extend(answered)
            failed.extend(lost)
            messages += group_messages
        contact_span.set(
            selected=len(selected),
            reached=len(contacted),
            failed=len(failed),
            messages=messages,
            items=len(items),
        )
    result = KnnResult(
        items=sort_items_by_distance(items),
        requested_k=k,
        epsilon_per_level=epsilon_per_level,
        peer_scores=aggregated,
        peers_contacted=contacted,
        failed_contacts=failed,
        index_hops=index_hops,
        retrieval_messages=messages,
    )
    return result, skipped


def knn_query(
    network,
    query: np.ndarray,
    k: int,
    *,
    c: float = 1.0,
    top_p: int | None = None,
    origin_peer: int | None = None,
    aggregation: str | None = None,
    exact: bool = False,
) -> KnnResult:
    """Retrieve (approximately) the ``k`` closest items to ``query``.

    Parameters
    ----------
    network:
        A published :class:`repro.core.network.HyperMNetwork`.
    query:
        Query vector in the original space.
    k:
        Number of neighbours requested.
    c:
        The paper's tuning constant ``C`` — total items requested are
        ``C * k`` split proportionally to peer scores; raising it trades
        precision for recall (Section 6.1 quantifies the trade).
    top_p:
        Contact exactly this many top peers (a non-negative integer);
        default picks the smallest ``P`` whose cumulative score covers
        ``k`` expected items.
    origin_peer:
        Peer issuing the query.
    aggregation:
        Override the cross-level score policy.
    exact:
        Extension beyond the paper: refine the heuristic answer into a
        *guaranteed* exact k-NN. The k-th retrieved distance upper-bounds
        the true k-th-neighbour distance, so a follow-up range query with
        that radius — which Theorem 4.1 makes dismissal-free — must
        contain every true neighbour. Costs one extra index round plus
        wider peer contacts; see :func:`refine_to_exact`.
    """
    query = check_vector(query, "query", dim=network.dimensionality)
    origin = resolve_origin(network, origin_peer)
    recorder = runtime.current.tracer
    with recorder.span(
        "query", type="knn", k=k, c=float(c), origin=origin
    ) as query_span, runtime.current.flight.span(
        "query", type="knn", origin=origin
    ):
        with recorder.span("translate", levels=len(network.levels)):
            plan = level_plan(network.dimensionality, network.levels, query)
        result, __ = run_knn(
            network, query, k, plan, RoutedSource(network, origin),
            origin=origin, c=c, top_p=top_p, aggregation=aggregation,
        )
        query_span.set(index_hops=result.index_hops, items=len(result.items))
    metrics = obs_registry.metrics()
    metrics.counter("query.knn.count").inc()
    metrics.counter("query.knn.items").inc(len(result.items))
    metrics.counter("query.knn.failed_contacts").inc(
        len(result.failed_contacts)
    )
    metrics.histogram("query.knn.index_hops").observe(result.index_hops)
    metrics.histogram("query.knn.peers_contacted").observe(
        len(result.peers_contacted)
    )
    if exact:
        return refine_to_exact(
            network, query, result, origin_peer=origin,
            aggregation=aggregation or network.config.aggregation,
        )
    return result


def refine_to_exact(
    network,
    query: np.ndarray,
    result: KnnResult,
    *,
    origin_peer: int,
    aggregation: str | None = None,
) -> KnnResult:
    """Upgrade a heuristic k-NN result into a guaranteed exact one.

    Let ``d_k`` be the k-th best distance among the already-retrieved
    items (if fewer than ``k`` were retrieved, the radius doubles from the
    best available bound until ``k`` items are found). The true k-th
    neighbour is at distance ``<= d_k``, so a range query of radius
    ``d_k`` — dismissal-free by Theorem 4.1 when every positive-score peer
    is contacted — returns a superset of the true k nearest neighbours.
    The union is re-ranked and the result carries combined accounting.

    Exactness holds while every item's holder is reachable; under churn
    the refinement degrades gracefully to best-effort (the radius-doubling
    loop is bounded).
    """
    k = result.requested_k
    ordered = sort_items_by_distance(result.items)
    if len(ordered) >= k:
        radius = ordered[k - 1].distance
    elif ordered:
        radius = max(item.distance for item in ordered)
    else:
        radius = 0.1
    radius = max(radius, 1e-9)

    refined = range_query(
        network, query, radius, origin_peer=origin_peer,
        aggregation=aggregation,
    )
    guard = 40
    while len(refined.items) < min(k, network.total_items) and guard:
        guard -= 1
        radius *= 2.0
        refined = range_query(
            network, query, radius, origin_peer=origin_peer,
            aggregation=aggregation,
        )

    merged: dict[int, object] = {}
    for item in list(result.items) + list(refined.items):
        best = merged.get(item.item_id)
        if best is None or item.distance < best.distance:
            merged[item.item_id] = item
    final = sort_items_by_distance(list(merged.values()))[:k]
    contacted = list(
        dict.fromkeys(result.peers_contacted + refined.peers_contacted)
    )
    return KnnResult(
        items=final,
        requested_k=k,
        epsilon_per_level=result.epsilon_per_level,
        peer_scores=refined.peer_scores or result.peer_scores,
        peers_contacted=contacted,
        failed_contacts=list(
            dict.fromkeys(result.failed_contacts + refined.failed_contacts)
        ),
        index_hops=result.index_hops + refined.index_hops,
        retrieval_messages=result.retrieval_messages
        + refined.retrieval_messages,
    )
