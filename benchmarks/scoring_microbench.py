#!/usr/bin/env python
"""Scoring + index-phase microbenchmarks for the columnar level store.

Two modes, both verifying correctness before any timing is reported:

**Scoring mode** (default; writes ``BENCH_scoring.json``) — one level's
worth of cluster spheres (default 10,000 at the paper's d = 512), scored
against a query sphere three ways:

* the scalar per-sphere oracle (``level_scores_scalar``);
* the list path (a Python entry list, stacked fresh per call);
* the store path (a :class:`repro.index.CandidateSet` consumed zero-copy
  from the shared columnar :class:`repro.index.LevelStore`).

Per-peer scores must agree to 1e-9 relative and the Theorem 4.1 filter
accounting (candidates / pruned / surviving) must be identical before the
store path is required to beat the scalar oracle by ``--min-speedup``
(default 5x).

**Index-phase mode** (``--index-phase``; writes ``BENCH_index_phase.json``)
— the full index phase at one level: overlay range query plus Eq. 1
scoring over a populated CAN overlay. The store-backed path (batched
row filtering per node, ``CandidateSet`` receipt, zero-copy scoring) races
a faithful reimplementation of the list-backed seed path (per-entry
``StoredEntry.intersects`` loops per visited node, ``id(entry)`` dedup,
per-call list stacking). Both paths must produce identical per-peer
scores (1e-9), identical filter stats, and the same candidate set; the
store path must win by ``--min-speedup`` (default 3x).

Timings run under PR 1's :class:`TraceRecorder`, so the emitted JSON
carries the same per-phase rows the ``repro profile`` command prints; CI
uploads both reports as artifacts.

Usage::

    PYTHONPATH=src python benchmarks/scoring_microbench.py
    PYTHONPATH=src python benchmarks/scoring_microbench.py \
        --spheres 20000 --repeats 5 --min-speedup 5 --out BENCH_scoring.json
    PYTHONPATH=src python benchmarks/scoring_microbench.py --index-phase \
        --spheres 10000 --dim 512 --min-speedup 3 --out BENCH_index_phase.json
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

from repro.core.results import ClusterRecord
from repro.core.scoring import level_scores, level_scores_scalar
from repro.index import LevelStore
from repro.obs import TraceRecorder
from repro.runtime import run_context
from repro.obs.profile import phase_rows
from repro.overlay.base import StoredEntry


def build_entries(
    n: int, d: int, n_peers: int, rng: np.random.Generator
) -> list[StoredEntry]:
    """Random cluster spheres in the unit cube, as overlay entries."""
    keys = rng.random((n, d))
    radii = rng.uniform(0.0, 0.4, n)
    items = rng.integers(1, 50, n)
    peers = rng.integers(0, n_peers, n)
    return [
        StoredEntry(
            key=keys[i],
            radius=float(radii[i]),
            value=ClusterRecord(
                peer_id=int(peers[i]), items=int(items[i]), level_name="A"
            ),
        )
        for i in range(n)
    ]


def build_store(entries: list[StoredEntry], d: int):
    """Mirror the entry list into a LevelStore; return its candidate set."""
    store = LevelStore(d)
    membership = store.new_membership()
    for entry in entries:
        membership.add(store.add(entry.key, entry.radius, entry.value))
    return store, store.candidate_set(membership.rows())


def pick_query(entries, d: int, rng: np.random.Generator):
    """A query sphere whose radius splits the candidate set.

    In d = 512 the distances between uniform points concentrate hard, so
    the radius is set from the observed distance distribution rather than
    a fixed constant — the benchmark then exercises both the pruning and
    the scoring arms (roughly half the spheres survive).
    """
    center = rng.random(d)
    dists = np.array(
        [float(np.linalg.norm(e.key - center)) for e in entries[:512]]
    )
    eps = float(np.median(dists))
    return center, eps


def scored(*args, **kwargs):
    """``level_scores`` plus every peer's total.

    ``level_scores`` defers the Eq. 1 kernel until totals are asked for;
    the timed arms ask for all of them, so the speedups still cover it.
    """
    table = level_scores(*args, **kwargs)
    table.totals()
    return table


def time_best_of(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def parity_error(batch: dict, scalar: dict) -> float:
    if set(batch) != set(scalar):
        return float("inf")
    worst = 0.0
    for peer, truth in scalar.items():
        denom = max(abs(truth), 1e-300)
        worst = max(worst, abs(batch[peer] - truth) / denom)
    return worst


def run_scoring(args) -> int:
    rng = np.random.default_rng(args.seed)
    entries = build_entries(args.spheres, args.dim, args.peers, rng)
    store, candidates = build_store(entries, args.dim)
    center, eps = pick_query(entries, args.dim, rng)
    print(f"scoring {args.spheres} spheres, d={args.dim}, eps={eps:.3f}")

    # Correctness gate first: scores and accounting must agree before any
    # timing is worth reporting.
    store_stats: dict = {}
    list_stats: dict = {}
    scalar_stats: dict = {}
    store_scores = level_scores(candidates, center, eps, stats=store_stats)
    list_scores = level_scores(entries, center, eps, stats=list_stats)
    scalar_scores = level_scores_scalar(
        entries, center, eps, stats=scalar_stats
    )
    max_rel_err = max(
        parity_error(store_scores, scalar_scores),
        parity_error(list_scores, scalar_scores),
    )
    stats_match = store_stats == scalar_stats == list_stats
    print(f"parity: max relative error {max_rel_err:.3e} "
          f"over {len(scalar_scores)} peers; stats match: {stats_match}")
    print(f"filter: {store_stats}")
    if not stats_match or max_rel_err > 1e-9:
        print("FAIL: batch paths do not reproduce the scalar oracle")
        return 1

    scalar_n = min(args.scalar_subset or args.spheres, args.spheres)
    scalar_entries = entries[:scalar_n]
    recorder = TraceRecorder()
    with run_context(tracer=recorder):
        with recorder.span("scalar", spheres=scalar_n):
            scalar_s = time_best_of(
                lambda: level_scores_scalar(scalar_entries, center, eps),
                args.repeats,
            )
        # List path: pays a fresh stacking pass over the entry list on
        # every call (there is no re-stacking cache any more).
        with recorder.span("list", spheres=args.spheres):
            list_s = time_best_of(
                lambda: scored(entries, center, eps), args.repeats
            )
        # Store path: zero-copy from the columnar store via CandidateSet.
        with recorder.span("store", spheres=args.spheres):
            store_s = time_best_of(
                lambda: scored(
                    store.candidate_set(candidates.rows), center, eps
                ),
                args.repeats,
            )
    scalar_full_s = scalar_s * (args.spheres / scalar_n)
    speedup = scalar_full_s / store_s if store_s > 0 else float("inf")
    list_speedup = scalar_full_s / list_s if list_s > 0 else float("inf")
    per_sphere_ns = store_s / args.spheres * 1e9
    print(f"scalar: {scalar_full_s * 1e3:9.2f} ms"
          + (f"  (extrapolated from {scalar_n})" if scalar_n < args.spheres
             else ""))
    print(f"list:   {list_s * 1e3:9.2f} ms  "
          f"({list_speedup:.1f}x; stacks the entry list per call)")
    print(f"store:  {store_s * 1e3:9.2f} ms  "
          f"({per_sphere_ns:.0f} ns/sphere, zero-copy candidate set)")
    print(f"speedup: {speedup:.1f}x store vs scalar "
          f"(required: {args.min_speedup:.1f}x)")

    report = {
        "benchmark": "scoring_microbench",
        "spheres": args.spheres,
        "dim": args.dim,
        "peers": args.peers,
        "epsilon": eps,
        "seed": args.seed,
        "scalar_s": scalar_full_s,
        "scalar_timed_spheres": scalar_n,
        "list_s": list_s,
        "store_s": store_s,
        "speedup": speedup,
        "list_speedup": list_speedup,
        "min_speedup": args.min_speedup,
        "parity_max_rel_err": max_rel_err,
        "stats": store_stats,
        "phases": phase_rows(recorder.spans),
    }
    with open(args.out, "w") as handle:
        json.dump(report, handle, indent=2)
    print(f"wrote {args.out}")

    if speedup < args.min_speedup:
        print(f"FAIL: speedup {speedup:.1f}x below "
              f"required {args.min_speedup:.1f}x")
        return 1
    print("PASS")
    return 0


# -- index-phase mode ---------------------------------------------------------


def build_overlay(args, rng: np.random.Generator):
    """A populated store-backed CAN plus the seed path's per-node lists."""
    from repro.overlay.can import CANNetwork

    can = CANNetwork(args.dim, rng=int(rng.integers(2**31)))
    ids = can.grow(args.nodes)
    keys = rng.random((args.spheres, args.dim))
    radii = rng.uniform(0.0, 0.4, args.spheres)
    items = rng.integers(1, 50, args.spheres)
    peers = rng.integers(0, args.peers, args.spheres)
    for i in range(args.spheres):
        can.insert(
            ids[i % len(ids)],
            keys[i],
            ClusterRecord(
                peer_id=int(peers[i]), items=int(items[i]), level_name="A"
            ),
            radius=float(radii[i]),
        )
    # The seed path's data layout: one Python list of StoredEntry objects
    # per node, replicas sharing one object so id()-dedup works (this is
    # exactly what per-node storage looked like before the level store).
    store = can.level_store
    objects = {
        store.entry_id_of(int(row)): StoredEntry(
            key=store.key_of(int(row)),
            radius=store.radius_of(int(row)),
            value=store.value_of(int(row)),
        )
        for row in store.live_rows()
    }
    legacy = {
        node_id: [
            objects[store.entry_id_of(int(row))]
            for row in can.node(node_id).membership.rows()
        ]
        for node_id in can.node_ids
    }
    center, eps = pick_query(list(objects.values()), args.dim, rng)
    return can, ids[0], legacy, center, eps


def seed_index_phase(legacy, visited, center, eps, stats=None):
    """The list-backed seed pipeline: per-entry filter loops + list scoring.

    Reproduces the pre-store range query over the same visited node set
    (per-node ``e.intersects`` Python loops, ``id(entry)`` dedup) followed
    by ``level_scores`` (all totals taken) over the collected list —
    which now stacks the list into arrays on every call.
    """
    seen: dict[int, StoredEntry] = {}
    for node_id in visited:
        for entry in legacy[node_id]:
            if entry.intersects(center, eps):
                seen.setdefault(id(entry), entry)
    return scored(list(seen.values()), center, eps, stats=stats)


def run_index_phase(args) -> int:
    rng = np.random.default_rng(args.seed)
    print(f"building {args.nodes}-node CAN with {args.spheres} spheres, "
          f"d={args.dim} ...")
    can, origin, legacy, center, eps = build_overlay(args, rng)
    health = can.level_store.health()
    memberships = sum(len(entries) for entries in legacy.values())
    print(f"store: {health['live_rows']} live rows, "
          f"{memberships} memberships "
          f"(replication {memberships / health['live_rows']:.2f}x), "
          f"eps={eps:.3f}")

    def store_index_phase(stats=None):
        receipt = can.range_query(origin, center, eps)
        return receipt, scored(receipt.entries, center, eps, stats=stats)

    # Correctness gates: the two pipelines must see the same candidates,
    # produce identical filter accounting, and agree with the scalar
    # oracle to 1e-9 before the race counts.
    store_stats: dict = {}
    seed_stats: dict = {}
    receipt, store_scores = store_index_phase(stats=store_stats)
    visited = list(receipt.nodes_visited)
    seed_scores = seed_index_phase(
        legacy, visited, center, eps, stats=seed_stats
    )
    reachable = {
        id(e): e for node_id in visited for e in legacy[node_id]
    }
    scalar_scores = level_scores_scalar(
        [e for e in reachable.values() if e.intersects(center, eps)],
        center, eps,
    )
    max_rel_err = max(
        parity_error(store_scores, scalar_scores),
        parity_error(seed_scores, scalar_scores),
    )
    stats_match = store_stats == seed_stats
    print(f"parity: max relative error {max_rel_err:.3e} over "
          f"{len(scalar_scores)} peers; stats match: {stats_match}")
    print(f"filter: {store_stats}")
    if not stats_match or max_rel_err > 1e-9:
        print("FAIL: store path does not reproduce the seed pipeline")
        return 1

    recorder = TraceRecorder()
    with run_context(tracer=recorder):
        with recorder.span("seed_path", spheres=args.spheres):
            seed_s = time_best_of(
                lambda: seed_index_phase(legacy, visited, center, eps),
                args.repeats,
            )
        with recorder.span("store_path", spheres=args.spheres):
            store_s = time_best_of(
                lambda: store_index_phase(), args.repeats
            )
    speedup = seed_s / store_s if store_s > 0 else float("inf")
    print(f"seed (list-backed):  {seed_s * 1e3:9.2f} ms")
    print(f"store (columnar):    {store_s * 1e3:9.2f} ms")
    print(f"speedup: {speedup:.1f}x (required: {args.min_speedup:.1f}x)")

    report = {
        "benchmark": "index_phase",
        "spheres": args.spheres,
        "dim": args.dim,
        "nodes": args.nodes,
        "peers": args.peers,
        "epsilon": eps,
        "seed": args.seed,
        "store_health": health,
        "memberships": memberships,
        "nodes_visited": len(visited),
        "seed_s": seed_s,
        "store_s": store_s,
        "speedup": speedup,
        "min_speedup": args.min_speedup,
        "parity_max_rel_err": max_rel_err,
        "stats": store_stats,
        "phases": phase_rows(recorder.spans),
    }
    with open(args.out, "w") as handle:
        json.dump(report, handle, indent=2)
    print(f"wrote {args.out}")

    if speedup < args.min_speedup:
        print(f"FAIL: speedup {speedup:.1f}x below "
              f"required {args.min_speedup:.1f}x")
        return 1
    print("PASS")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--index-phase", action="store_true",
                        help="run the end-to-end index-phase bench "
                             "(overlay range query + Eq. 1 scoring) "
                             "instead of the scoring micro")
    parser.add_argument("--spheres", type=int, default=10_000,
                        help="cluster spheres per level (default 10000)")
    parser.add_argument("--dim", type=int, default=512,
                        help="subspace dimensionality (default 512)")
    parser.add_argument("--peers", type=int, default=64,
                        help="distinct publishing peers (default 64)")
    parser.add_argument("--nodes", type=int, default=32,
                        help="overlay nodes for --index-phase (default 32)")
    parser.add_argument("--repeats", type=int, default=3,
                        help="timing repeats; best-of wins (default 3)")
    parser.add_argument("--scalar-subset", type=int, default=None,
                        help="time the scalar oracle on this many spheres "
                             "and extrapolate (default: the full set)")
    parser.add_argument("--min-speedup", type=float, default=None,
                        help="fail below this speedup (default: 5 for "
                             "scoring, 3 for --index-phase)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default=None,
                        help="JSON report path (default BENCH_scoring.json "
                             "or BENCH_index_phase.json)")
    args = parser.parse_args(argv)
    if args.index_phase:
        args.min_speedup = args.min_speedup or 3.0
        args.out = args.out or "BENCH_index_phase.json"
        return run_index_phase(args)
    args.min_speedup = args.min_speedup or 5.0
    args.out = args.out or "BENCH_scoring.json"
    return run_scoring(args)


if __name__ == "__main__":
    sys.exit(main())
