"""Serving-tier throughput and latency: the ``repro serve-bench`` runner.

Three arms over one published Markov-corpus network:

* **Sequential** — the baseline query plane:
  :func:`repro.core.queries.range_query` once per request, each paying
  its own per-level overlay walk and BLAS pass.
* **Batched** — the same request stream through
  :meth:`repro.serve.ServeEngine.execute_batch` in fixed-size batches:
  the same query pipeline over the co-located candidate source — one
  stacked intersection GEMM per level per batch and a generation-keyed
  candidate cache. Measured twice: a
  *steady-state* arm (warm engine on a Zipf-skewed hot stream — the
  serving tier as deployed) and a *cold* arm (fresh engine, distinct
  queries — pure batching with every cache missing).
* **Open loop** — the async engine under an arrival schedule at a fixed
  fraction of measured capacity (:func:`repro.serve.run_open_loop`),
  yielding QPS and coordinated-omission-free p50/p99 latency.

Result parity between the arms is asserted here (identical item sets),
and property-tested at 1e-9 in ``tests/test_serve_batch.py`` — the
speedups are pure execution strategy, never a different answer.
"""

from __future__ import annotations

import gc

import numpy as np

from repro.core.network import HyperMConfig
from repro.evaluation.workloads import build_markov_network, sample_queries
from repro.exceptions import ValidationError
from repro.obs import registry as obs_registry
from repro.serve import RangeRequest, ServeEngine, run_open_loop
from repro.utils.validation import check_positive


def _build(cfg: dict):
    workload, __ = build_markov_network(
        n_peers=cfg["n_peers"],
        items_per_peer=cfg["items_per_peer"],
        dimensionality=cfg["dimensionality"],
        config=HyperMConfig(
            levels_used=cfg["levels_used"], n_clusters=cfg["n_clusters"]
        ),
        rng=cfg["seed"],
        publish=True,
    )
    return workload


def _query_streams(workload, cfg: dict):
    """(distinct queries, Zipf-skewed hot stream over them)."""
    rng = np.random.default_rng(cfg["seed"] + 11)
    distinct = sample_queries(workload.data, cfg["n_distinct"], rng=rng)
    weights = 1.0 / np.arange(1, cfg["n_distinct"] + 1, dtype=np.float64)
    weights /= weights.sum()
    picks = rng.choice(cfg["n_distinct"], size=cfg["n_queries"], p=weights)
    return distinct, distinct[picks]


def _requests(queries, cfg: dict) -> list[RangeRequest]:
    return [
        RangeRequest(
            query=query, epsilon=cfg["epsilon"], max_peers=cfg["max_peers"]
        )
        for query in queries
    ]


def _timed(body, clock=None) -> float:
    """Wall-time one arm, GC-quiesced, on the ambient metrics clock.

    The clock comes from the injectable-clock idiom
    (:class:`repro.obs.registry.MetricsRegistry`, same as ``obs.trace``
    and ``obs.flight``): ``metrics().clock`` is ``time.perf_counter``
    in production and a fake in tests, making bench timings — and the
    speedup ratios built from them — deterministic under test.
    """
    if clock is None:
        clock = obs_registry.metrics().clock
    gc.collect()
    gc.disable()
    try:
        start = clock()
        body()
        return clock() - start
    finally:
        gc.enable()


def _run_batches(engine: ServeEngine, requests, batch_size: int):
    results = []
    for start in range(0, len(requests), batch_size):
        results.extend(
            engine.execute_batch(requests[start:start + batch_size])
        )
    return results


def run_serve_bench(
    n_peers: int = 20,
    items_per_peer: int = 100,
    dimensionality: int = 64,
    n_clusters: int = 6,
    levels_used: int = 3,
    seed: int = 3,
    n_distinct: int = 24,
    n_queries: int = 96,
    epsilon: float = 0.25,
    max_peers: int = 3,
    batch_size: int = 16,
    repeats: int = 3,
    load_fraction: float = 0.8,
) -> dict:
    """Run the three serving arms; returns the JSON-safe report.

    ``load_fraction`` sets the open-loop offered rate as a fraction of
    the measured steady-state capacity, so the latency run exercises a
    busy-but-stable engine on any machine; it must be finite and > 0.
    """
    if batch_size < 1:
        raise ValidationError(f"batch_size must be >= 1, got {batch_size}")
    if repeats < 1:
        raise ValidationError(f"repeats must be >= 1, got {repeats}")
    check_positive(load_fraction, "load_fraction")
    cfg = {
        "n_peers": n_peers, "items_per_peer": items_per_peer,
        "dimensionality": dimensionality, "n_clusters": n_clusters,
        "levels_used": levels_used, "seed": seed,
        "n_distinct": n_distinct, "n_queries": n_queries,
        "epsilon": epsilon, "max_peers": max_peers,
    }
    workload = _build(cfg)
    network = workload.network
    distinct, hot_stream = _query_streams(workload, cfg)
    hot_requests = _requests(hot_stream, cfg)
    distinct_requests = _requests(distinct, cfg)
    # Steady-state engine: caches warm across repeats (that *is* the
    # tier's deployed state); parity asserted on the first pass.
    engine = ServeEngine(network)
    batched_results = _run_batches(engine, hot_requests, batch_size)
    sequential_results = [
        network.range_query(
            request.query, request.epsilon, max_peers=request.max_peers
        )
        for request in hot_requests
    ]
    for served, sequential in zip(batched_results, sequential_results):
        served_ids = sorted(item.item_id for item in served.items)
        sequential_ids = sorted(item.item_id for item in sequential.items)
        if served_ids != sequential_ids:
            raise ValidationError(
                "batched and sequential arms disagree on result items"
            )

    # Pairwise timing, alternating order, minimum ratio (conservative):
    # adjacent runs share the machine's load regime, so the cleanest
    # pair gives the honest speedup.
    speedups, cold_speedups = [], []
    seq_s, batched_s, cold_seq_s, cold_batched_s = [], [], [], []
    for repeat in range(repeats):
        sequential_first = repeat % 2 == 0
        pair = {}
        for arm in ((0, 1) if sequential_first else (1, 0)):
            if arm == 0:
                pair["seq"] = _timed(lambda: [
                    network.range_query(
                        r.query, r.epsilon, max_peers=r.max_peers
                    )
                    for r in hot_requests
                ])
            else:
                pair["batched"] = _timed(
                    lambda: _run_batches(engine, hot_requests, batch_size)
                )
        cold_engine = ServeEngine(network)
        pair["cold_seq"] = _timed(lambda: [
            network.range_query(r.query, r.epsilon, max_peers=r.max_peers)
            for r in distinct_requests
        ])
        pair["cold_batched"] = _timed(
            lambda: _run_batches(cold_engine, distinct_requests, batch_size)
        )
        seq_s.append(pair["seq"])
        batched_s.append(pair["batched"])
        cold_seq_s.append(pair["cold_seq"])
        cold_batched_s.append(pair["cold_batched"])
        speedups.append(pair["seq"] / pair["batched"])
        cold_speedups.append(pair["cold_seq"] / pair["cold_batched"])

    # Open-loop latency at a fixed fraction of measured capacity.
    capacity_qps = len(hot_requests) / min(batched_s)
    offered = max(load_fraction * capacity_qps, 1.0)
    load_engine = ServeEngine(network)
    load_report = run_open_loop(load_engine, hot_requests, rate=offered)

    snapshot = engine.snapshot()
    return {
        "benchmark": "query_serve",
        **cfg,
        "batch_size": batch_size,
        "repeats": repeats,
        "speedup": min(speedups),
        "cold_speedup": min(cold_speedups),
        "sequential_s": min(seq_s),
        "batched_s": min(batched_s),
        "cold_sequential_s": min(cold_seq_s),
        "cold_batched_s": min(cold_batched_s),
        "sequential_qps": len(hot_requests) / min(seq_s),
        "batched_qps": capacity_qps,
        "load": load_report.to_dict(),
        "engine": {
            "batches": snapshot["batches"],
            "served": snapshot["served"],
            "candidate_cache": snapshot["candidate_cache"],
            "translation_cache": snapshot["translation_cache"],
        },
    }
