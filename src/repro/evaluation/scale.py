"""The ``repro scale-bench`` runner: 10⁵-peer publish + query throughput.

The scale harness answers the question the per-operation benchmarks
cannot: what does a Hyper-M deployment cost at MANET-city scale? It
builds one overlay per published wavelet level as an analytic CAN grid
(:mod:`repro.overlay.can.bulk` — the closed form of the join protocol's
uniform-split limit), bulk-publishes synthetic cluster spheres for every
peer in vectorised passes, then drives a batch of translated range
queries entirely through the execution-engine plane
(:mod:`repro.engine`): per-level intersection masks and Eq. 1 scores run
inline (serial) or on shard workers over shared memory (sharded), and
min-across-levels aggregation — the paper's only cross-level join point
— happens once per query after the per-level barrier.

Three headline numbers land in ``BENCH_scale.json``:

* ``peers_per_s`` — bulk construction + publication throughput;
* ``queries_per_s`` — engine-plane index-phase query throughput;
* ``resources.peak_rss_mb`` — the run's memory high-water mark.

Plus one machine-relative ratio CI can gate: ``bulk_speedup``, the
wall-clock ratio of protocol-grown (routed joins + routed inserts)
versus bulk (grid + :func:`bulk_publish`) construction at a small equal
size on the same machine. On either engine the first ``parity_queries``
queries are recomputed by :func:`_oracle_scores` — no store, no engine,
no ``aggregate_scores`` — and compared at 1e-9: an engine or a join is
an execution strategy, never a different answer.

The query side is the pipeline of :mod:`repro.core.queries` with the
engine plane in the candidate + score seat: :func:`~repro.core.queries.
level_plan` translates, :meth:`Engine.score_levels` masks and scores each
level, :func:`~repro.core.queries.score_peers` joins them.
"""

from __future__ import annotations

import numpy as np

from repro.core.queries import level_plan, score_peers
from repro.core.results import ClusterRecord
from repro.core.scoring import level_scores_scalar
from repro.engine import EngineConfig, create_engine
from repro.exceptions import ValidationError
from repro.net.network import Network
from repro.obs import registry as obs_registry
from repro.obs.rss import rss_snapshot
from repro.overlay.base import StoredEntry
from repro.overlay.can import CANNetwork, build_grid_can, bulk_publish
from repro.utils.rng import ensure_rng
from repro.utils.validation import check_positive
from repro.wavelets.multiresolution import publication_levels


def _clock():
    return obs_registry.metrics().clock


def _sphere_batch(levels, n_peers, spheres_per_peer, rng):
    """Synthetic per-level sphere columns: keys, radii, items, peer ids.

    Keys are uniform in each level's key space, radii uniform in
    ``[0, 0.05]`` and item counts cycle through ``1..32`` — the
    publication *cost* being measured is independent of where a real
    summary's centroids land, uniform keys exercise every grid cell, and
    non-zero counts keep Eq. 1 scores (hence the parity check) non-zero.
    """
    n_spheres = n_peers * spheres_per_peer
    peer_ids = np.repeat(np.arange(n_peers, dtype=np.int64), spheres_per_peer)
    batches = {}
    for level in levels:
        keys = rng.random((n_spheres, level.dimensionality))
        radii = 0.05 * rng.random(n_spheres)
        batches[level] = (keys, radii)
    items = 1.0 + np.arange(n_spheres) % 32
    return peer_ids, items, batches


def _build_and_publish(
    levels, n_peers, peer_ids, items, batches, *, fabric, rng
):
    """Grid-build every level overlay and bulk-publish all spheres.

    Returns ``(overlays, plans, build_s, publish_s)``. Peer ``i`` is
    node ``offset + i`` of each level's grid (the grid has at least
    ``n_peers`` cells), so publish traffic is charged from each peer's
    own node to the sphere's owner.
    """
    clock = _clock()
    overlays: dict = {}
    plans: dict = {}
    stride = max(1_000_000, 1 << (max(n_peers - 1, 1)).bit_length())
    level_rngs = [ensure_rng(int(rng.integers(2**63))) for __ in levels]
    start = clock()
    for index, level in enumerate(levels):
        can, plan = build_grid_can(
            level.dimensionality, n_peers, fabric=fabric,
            rng=level_rngs[index], node_id_offset=(index + 1) * stride,
        )
        overlays[level] = can
        plans[level] = plan
    build_s = clock() - start
    start = clock()
    for index, level in enumerate(levels):
        plan = plans[level]
        keys, radii = batches[level]
        origins = plan.node_id_offset + peer_ids
        bulk_publish(
            overlays[level], plan, keys, radii,
            peer_ids=peer_ids, origins=origins, items=items,
        )
    publish_s = clock() - start
    return overlays, plans, build_s, publish_s


def _engine_scores(engine, plan: dict) -> dict:
    """One index-phase query on the engine plane; returns peer scores."""
    tasks = [
        (index, key, radius)
        for index, (key, radius) in enumerate(plan.values())
    ]
    return score_peers(dict(zip(plan, engine.score_levels(tasks))), "min")


def _oracle_scores(plan: dict, peer_ids, items, batches) -> dict:
    """The same query over the raw published columns, sharing no code
    with the engines' mask, gather or join: a plain distance filter,
    Eq. 1 one sphere at a time, a plain ``dict`` min-join."""
    per_level = []
    for level, (center, radius) in plan.items():
        keys, radii = batches[level]
        near = np.flatnonzero(
            np.linalg.norm(keys - center, axis=1) <= radii + radius + 1e-6
        )
        per_level.append(level_scores_scalar([
            StoredEntry(keys[row], float(radii[row]), ClusterRecord(
                int(peer_ids[row]), float(items[row]), str(level)
            ))
            for row in near
        ], center, radius))
    common = set.intersection(*map(set, per_level))
    return {p: min(scores[p] for scores in per_level) for p in common}


def _score_parity(engine_scores, oracle_scores):
    """Max |delta| between two peer-score dicts; infinite on set mismatch."""
    if set(engine_scores) != set(oracle_scores):
        return float("inf")
    return max(
        (abs(engine_scores[p] - oracle_scores[p]) for p in engine_scores),
        default=0.0,
    )


def _routed_baseline_s(dimensionality, n_peers, keys, radii, rng) -> float:
    """Wall time of protocol-grown construction + routed publication."""
    clock = _clock()
    start = clock()
    can = CANNetwork(dimensionality, rng=rng)
    can.grow(n_peers)
    node_ids = can.node_ids
    for row, key in enumerate(keys):
        origin = node_ids[row % n_peers]
        can.insert(origin, key, None, radius=float(radii[row]))
    return clock() - start


def _bulk_baseline_s(dimensionality, n_peers, keys, radii, rng) -> float:
    """Wall time of grid construction + bulk publication (same inputs)."""
    clock = _clock()
    start = clock()
    can, plan = build_grid_can(dimensionality, n_peers, rng=rng)
    origins = plan.node_id_offset + (
        np.arange(keys.shape[0], dtype=np.int64) % n_peers
    )
    bulk_publish(can, plan, keys, radii, origins=origins)
    return clock() - start


def run_scale_bench(
    n_peers: int = 2048,
    spheres_per_peer: int = 2,
    dimensionality: int = 16,
    levels_used: int = 3,
    n_queries: int = 32,
    epsilon: float = 0.25,
    engine: str = "serial",
    workers: int = 2,
    seed: int = 0,
    baseline_peers: int = 192,
    parity_queries: int = 4,
) -> dict:
    """Run the scale benchmark; returns the JSON-safe report.

    ``baseline_peers`` sizes the routed-versus-bulk construction race
    whose wall-clock ratio (``bulk_speedup``) is the CI-gated field —
    small enough that the quadratic routed arm stays affordable,
    identical inputs on both arms. ``parity_queries`` queries are
    double-checked against the scalar oracle on either engine.
    """
    if n_peers < 1:
        raise ValidationError(f"n_peers must be >= 1, got {n_peers}")
    if spheres_per_peer < 1:
        raise ValidationError(
            f"spheres_per_peer must be >= 1, got {spheres_per_peer}"
        )
    if n_queries < 1:
        raise ValidationError(f"n_queries must be >= 1, got {n_queries}")
    if baseline_peers < 2:
        raise ValidationError(
            f"baseline_peers must be >= 2, got {baseline_peers}"
        )
    check_positive(epsilon, "epsilon", strict=False)
    rng = ensure_rng(seed)
    levels = publication_levels(dimensionality, levels_used)
    clock = _clock()

    config = EngineConfig(engine=engine, workers=workers)
    engine_obj = create_engine(config)
    try:
        fabric = Network(scheduler=engine_obj.create_scheduler())
        peer_ids, items, batches = _sphere_batch(
            levels, n_peers, spheres_per_peer, rng
        )
        overlays, plans, build_s, publish_s = _build_and_publish(
            levels, n_peers, peer_ids, items, batches, fabric=fabric, rng=rng
        )
        for index, level in enumerate(levels):
            engine_obj.register_store(index, overlays[level].level_store)

        queries = rng.random((n_queries, dimensionality))
        query_plans = [
            level_plan(dimensionality, levels, query, epsilon)
            for query in queries
        ]

        # Parity first (outside the timed window): the engine must agree
        # with the scalar oracle before its throughput means anything.
        checked = max(0, min(parity_queries, n_queries))
        worst = 0.0
        for plan in query_plans[:checked]:
            worst = max(worst, _score_parity(
                _engine_scores(engine_obj, plan),
                _oracle_scores(plan, peer_ids, items, batches),
            ))
        if not worst <= 1e-9:
            raise ValidationError(
                f"{engine_obj.name} scoring diverged from the scalar "
                f"oracle (max delta {worst})"
            )
        parity = {"checked": checked, "max_abs_delta": worst}

        stores = [overlays[level].level_store for level in levels]
        scanned_before = sum(store.rows_scanned for store in stores)
        start = clock()
        peers_ranked = 0
        for plan in query_plans:
            peers_ranked += len(_engine_scores(engine_obj, plan))
        query_s = clock() - start
        # Shard workers scan their own directories and report nothing
        # back: the stores' counters see only inline passes.
        rows_scanned = None if engine_obj.parallel else (
            sum(store.rows_scanned for store in stores) - scanned_before
        ) / n_queries

        small = min(baseline_peers, n_peers)
        base_dim = levels[-1].dimensionality
        base_keys = rng.random((small * spheres_per_peer, base_dim))
        base_radii = 0.05 * rng.random(small * spheres_per_peer)
        routed_s = _routed_baseline_s(
            base_dim, small, base_keys, base_radii,
            ensure_rng(int(rng.integers(2**63))),
        )
        bulk_s = _bulk_baseline_s(
            base_dim, small, base_keys, base_radii,
            ensure_rng(int(rng.integers(2**63))),
        )

        n_spheres = n_peers * spheres_per_peer * len(levels)
        report = {
            "benchmark": "scale",
            "n_peers": n_peers,
            "spheres_per_peer": spheres_per_peer,
            "dimensionality": dimensionality,
            "levels_used": levels_used,
            "n_queries": n_queries,
            "epsilon": float(epsilon),
            "seed": seed,
            "engine": engine_obj.name,
            "workers": config.workers,
            "shard_by": config.shard_by,
            "grid": {
                str(level): list(plans[level].counts) for level in levels
            },
            "build_s": build_s,
            "publish_s": publish_s,
            "peers_per_s": n_peers / max(build_s + publish_s, 1e-12),
            "spheres_published": n_spheres,
            "spheres_per_s": n_spheres / max(publish_s, 1e-12),
            "query_s": query_s,
            "queries_per_s": n_queries / max(query_s, 1e-12),
            "rows_scanned_per_query": rows_scanned,
            "mean_peers_ranked": peers_ranked / n_queries,
            "baseline_peers": small,
            "routed_small_s": routed_s,
            "bulk_small_s": bulk_s,
            "bulk_speedup": routed_s / max(bulk_s, 1e-12),
            "parity": parity,
            "fabric": {
                "messages": fabric.metrics.total_messages,
                "bytes": fabric.metrics.total_bytes,
                "energy": fabric.energy.total,
            },
            "engine_snapshot": engine_obj.snapshot(),
            "resources": rss_snapshot(),
        }
        return report
    finally:
        engine_obj.close()
