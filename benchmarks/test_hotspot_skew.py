#!/usr/bin/env python
"""Hotspot skew under a clustered query workload + instrumentation overhead.

Two questions in one run:

1. **Where does dissemination load concentrate?** A Markov-data Hyper-M
   network is published, then hammered with range queries drawn from a
   *skewed* subset of the corpus (the few largest clusters, via
   :func:`repro.datasets.skewed.generate_skewed_dataset`) — the query
   pattern GeoP2P-style workloads produce. The
   :class:`repro.net.metrics.LoadLedger` fused by ``build_loadmap``
   yields the headline numbers: the hottest zone's byte volume and the
   Gini / max-over-mean skew of per-zone traffic. A skewed workload must
   produce measurable concentration (gate: zone-bytes max/mean >= 1.5).

2. **What does full instrumentation cost?** The same publish+query
   workload runs twice more — once with every observability plane on
   (metrics registry, span tracing, flight recorder) and once with all
   of them off (the null-recorder hot path). Both are timed min-of-N on
   identically rebuilt networks. The gate is the *absolute* cost,
   ``(instrumented - baseline) / fabric frames`` in microseconds per
   frame (gate: <= 14; ten runs on the 2-core box read 7.7-9.2, median
   8.6): the planes hook every frame, so that is what they cost, and it
   does not move when a perf PR shrinks the uninstrumented denominator
   (0.356 s when the old 10% ratio gate was set, 0.226 s now — the
   ratio read +3% to +14% on unchanged code). The on/off ratio is still
   printed and saved.

3. **Does adaptation fix the hotspot?** The identical publish+query
   workload runs once more with an
   :class:`repro.overlay.adapt.AdaptationController` attached — zone
   rebalancing, replication retuning, and quality-scored multicast
   driven by the loadmap. Gates: the adapted zone-bytes max/mean must
   improve at least 2x over the clean run and land at <= 8, with
   adapted Gini <= 0.6. Query results are identical in both arms
   (property-tested in ``tests/test_overlay_adapt.py``), so this is
   pure load-shaping.

Usage::

    PYTHONPATH=src python benchmarks/test_hotspot_skew.py
    PYTHONPATH=src python benchmarks/test_hotspot_skew.py \
        --max-overhead-us 14 --min-skew 1.5 --max-adapted-skew 8.0 \
        --max-adapted-gini 0.6 --min-adapt-improvement 2.0 \
        --out BENCH_hotspot.json

or under pytest (same gates; the seed-stable lines are saved to
``benchmarks/results``, the wall-clock line goes to stdout only)::

    PYTHONPATH=src python -m pytest benchmarks/test_hotspot_skew.py -s
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
import time

import numpy as np

from repro.core.network import HyperMConfig
from repro.evaluation.adaptation import skewed_query_points
from repro.evaluation.workloads import build_markov_network
from repro.obs.flight import FlightRecorder
from repro.obs.loadmap import build_loadmap
from repro.obs.registry import MetricsRegistry
from repro.obs.trace import TraceRecorder
from repro.runtime import run_context
from repro.overlay.adapt import AdaptConfig

DEFAULTS = {
    "n_peers": 12,
    "items_per_peer": 150,
    "dimensionality": 64,
    "n_clusters": 6,
    "levels_used": 3,
    "seed": 3,
    "n_queries": 96,
    "epsilon": 0.5,
    "hot_clusters": 2,
    "repeats": 5,
    "top_k": 5,
    "adapt_epoch_queries": 16,
}


def _skewed_queries(data: np.ndarray, cfg: dict) -> np.ndarray:
    """Query points concentrated in the corpus's few largest clusters."""
    return skewed_query_points(
        data, cfg["hot_clusters"], cfg["n_queries"], cfg["seed"]
    )


def _run_workload(cfg: dict, *, instrumented: bool):
    """Publish + skewed queries once; returns (seconds, network, flight).

    Network construction (clustering) happens outside the timed window —
    the timed region is exactly the dissemination and query traffic the
    per-transmit instrumentation hooks into.
    """
    workload, __ = build_markov_network(
        n_peers=cfg["n_peers"],
        items_per_peer=cfg["items_per_peer"],
        dimensionality=cfg["dimensionality"],
        config=HyperMConfig(
            levels_used=cfg["levels_used"], n_clusters=cfg["n_clusters"]
        ),
        rng=cfg["seed"],
        publish=False,
    )
    network = workload.network
    queries = _skewed_queries(workload.data, cfg)

    def timed_body() -> float:
        # GC pauses land on whichever run happens to cross a collection
        # threshold; park the collector so both modes time pure work.
        gc.collect()
        gc.disable()
        try:
            start = time.perf_counter()
            network.publish_all()
            for query in queries:
                network.range_query(query, cfg["epsilon"])
            return time.perf_counter() - start
        finally:
            gc.enable()

    if instrumented:
        flight = FlightRecorder()
        with run_context(
            metrics=MetricsRegistry(), tracer=TraceRecorder(), flight=flight
        ):
            elapsed = timed_body()
    else:
        flight = None
        elapsed = timed_body()
    return elapsed, network, flight


def _run_adapted(cfg: dict) -> dict:
    """The same workload with the adaptation control loop attached."""
    workload, __ = build_markov_network(
        n_peers=cfg["n_peers"],
        items_per_peer=cfg["items_per_peer"],
        dimensionality=cfg["dimensionality"],
        config=HyperMConfig(
            levels_used=cfg["levels_used"], n_clusters=cfg["n_clusters"]
        ),
        rng=cfg["seed"],
        publish=False,
    )
    network = workload.network
    network.enable_adaptation(
        AdaptConfig(epoch_queries=cfg["adapt_epoch_queries"])
    )
    queries = _skewed_queries(workload.data, cfg)
    network.publish_all()
    for query in queries:
        network.range_query(query, cfg["epsilon"])
    loadmap = build_loadmap(network, top_k=cfg["top_k"])
    zone_bytes = loadmap["skew"]["zone_bytes"]
    decisions = network.adaptation.snapshot()["decisions"]
    return {
        "zone_gini": zone_bytes["gini"],
        "zone_max_over_mean": zone_bytes["max_over_mean"],
        "max_zone_bytes": int(zone_bytes["max"]),
        "decisions": decisions,
    }


def run_benchmark(config: dict | None = None) -> dict:
    """Measure hotspot skew and instrumentation overhead; return the report."""
    cfg = {**DEFAULTS, **(config or {})}
    # One untimed warmup of each mode: first-touch costs (imports, numpy
    # dispatch caches, branch warmup) otherwise land on whichever mode
    # happens to run first and swamp the few-percent signal.
    _run_workload(cfg, instrumented=False)
    _run_workload(cfg, instrumented=True)
    # Time the two modes back-to-back inside each repeat (alternating
    # which goes first) and take the *minimum pairwise ratio*: a shared
    # machine drifts between repeats, but adjacent timings see the same
    # load regime, so the cleanest pair gives the honest overhead.
    baseline_s = []
    instrumented_s = []
    ratios = []
    network = flight = None
    for repeat in range(cfg["repeats"]):
        order = (False, True) if repeat % 2 == 0 else (True, False)
        pair = {}
        for instrumented in order:
            elapsed, _net, _flight = _run_workload(
                cfg, instrumented=instrumented
            )
            pair[instrumented] = elapsed
            if instrumented:
                network, flight = _net, _flight
        baseline_s.append(pair[False])
        instrumented_s.append(pair[True])
        ratios.append(pair[True] / pair[False])

    loadmap = build_loadmap(network, top_k=cfg["top_k"])
    zone_bytes = loadmap["skew"]["zone_bytes"]
    top_zone = loadmap["hotspots"]["zones"][0]
    histograms = flight.per_op_histograms()
    frames = network.fabric.metrics.total_messages
    adapted = _run_adapted(cfg)
    improvement = (
        zone_bytes["max_over_mean"] / adapted["zone_max_over_mean"]
        if adapted["zone_max_over_mean"] > 0
        else 0.0
    )
    return {
        "benchmark": "hotspot_skew",
        **{k: cfg[k] for k in sorted(DEFAULTS)},
        "baseline_s": min(baseline_s),
        "instrumented_s": min(instrumented_s),
        "overhead": min(ratios),
        "frames": frames,
        "overhead_us_per_frame": (
            (min(instrumented_s) - min(baseline_s)) / frames * 1e6
        ),
        "max_zone_bytes": int(zone_bytes["max"]),
        "zone_gini": zone_bytes["gini"],
        "zone_max_over_mean": zone_bytes["max_over_mean"],
        "peer_gini": loadmap["skew"]["peer_bytes"]["gini"],
        "rows_gini": loadmap["skew"]["zone_rows"]["gini"],
        "adapted_zone_gini": adapted["zone_gini"],
        "adapted_zone_max_over_mean": adapted["zone_max_over_mean"],
        "adapted_max_zone_bytes": adapted["max_zone_bytes"],
        "adapt_splits": adapted["decisions"]["split"],
        "adapt_boosts": adapted["decisions"]["boost"],
        "adapt_sheds": adapted["decisions"]["shed"],
        "adapt_skew_speedup": improvement,
        "rows": [
            {
                "mode": "clean",
                "zone_gini": zone_bytes["gini"],
                "zone_max_over_mean": zone_bytes["max_over_mean"],
                "max_zone_bytes": int(zone_bytes["max"]),
            },
            {
                "mode": "adapted",
                "zone_gini": adapted["zone_gini"],
                "zone_max_over_mean": adapted["zone_max_over_mean"],
                "max_zone_bytes": adapted["max_zone_bytes"],
            },
        ],
        "top_zone": {
            "level": top_zone["level"],
            "node": top_zone["node"],
            "peer": top_zone["peer"],
            "bytes": top_zone["bytes"],
            "query_hits": top_zone["query_hits"],
        },
        "flight_edges": flight.snapshot()["edges"],
        "range_query_ops": histograms.get("range_query", {}).get("ops", 0),
    }


def check_gates(
    report: dict,
    *,
    max_overhead_us: float,
    min_skew: float,
    max_adapted_skew: float = 8.0,
    max_adapted_gini: float = 0.6,
    min_adapt_improvement: float = 2.0,
) -> list[str]:
    """Return gate-failure messages (empty means every gate passed)."""
    failures = []
    if report["overhead_us_per_frame"] > max_overhead_us:
        failures.append(
            f"full instrumentation costs "
            f"{report['overhead_us_per_frame']:.1f} us per frame, above "
            f"the {max_overhead_us:.1f} us gate"
        )
    if report["zone_max_over_mean"] < min_skew:
        failures.append(
            f"zone-bytes max/mean {report['zone_max_over_mean']:.2f} "
            f"below the {min_skew:.1f} skew-detection gate"
        )
    if report["max_zone_bytes"] <= 0:
        failures.append("hottest zone carried no traffic")
    if report["adapted_zone_max_over_mean"] > max_adapted_skew:
        failures.append(
            f"adapted zone-bytes max/mean "
            f"{report['adapted_zone_max_over_mean']:.2f} above the "
            f"{max_adapted_skew:.1f} gate"
        )
    if report["adapted_zone_gini"] > max_adapted_gini:
        failures.append(
            f"adapted zone-bytes gini {report['adapted_zone_gini']:.3f} "
            f"above the {max_adapted_gini:.2f} gate"
        )
    if report["adapt_skew_speedup"] < min_adapt_improvement:
        failures.append(
            f"adaptation improved zone skew only "
            f"{report['adapt_skew_speedup']:.2f}x, below the "
            f"{min_adapt_improvement:.1f}x gate"
        )
    return failures


def _render(report: dict) -> str:
    """The seed-stable lines — what ``benchmarks/results`` commits."""
    top = report["top_zone"]
    return (
        "hotspot-skew benchmark — skewed range queries on a Markov corpus\n"
        f"  hottest zone: level {top['level']} node {top['node']} "
        f"(peer {top['peer']}) — {top['bytes']} bytes, "
        f"{top['query_hits']} query hits\n"
        f"  zone bytes: gini {report['zone_gini']:.3f}, "
        f"max/mean {report['zone_max_over_mean']:.2f} | "
        f"peer bytes gini {report['peer_gini']:.3f}\n"
        f"  adapted: gini {report['adapted_zone_gini']:.3f}, "
        f"max/mean {report['adapted_zone_max_over_mean']:.2f} "
        f"({report['adapt_skew_speedup']:.2f}x better; "
        f"{report['adapt_splits']} splits, {report['adapt_boosts']} boosts, "
        f"{report['adapt_sheds']} sheds)\n"
        f"  instrumented run: {report['frames']} frames, "
        f"{report['flight_edges']} flight edges"
    )


def _render_timing(report: dict) -> str:
    """The wall-clock line: stdout and ``--out`` JSON only, never committed."""
    return (
        f"  instrumentation: {report['baseline_s']:.3f}s off vs "
        f"{report['instrumented_s']:.3f}s on "
        f"({report['overhead'] - 1.0:+.1%} overhead, "
        f"{report['overhead_us_per_frame']:.1f} us per frame)"
    )


def test_hotspot_skew_gates(record_table):
    """Skewed queries concentrate load; instrumentation <= 14 us a frame;
    adaptation flattens the hotspot at least 2x (and under the absolute
    skew caps)."""
    report = run_benchmark()
    record_table("hotspot_skew", _render(report))
    print(_render_timing(report))
    failures = check_gates(
        report,
        max_overhead_us=14.0,
        min_skew=1.5,
        max_adapted_skew=8.0,
        max_adapted_gini=0.6,
        min_adapt_improvement=2.0,
    )
    assert not failures, "; ".join(failures)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-overhead-us", type=float, default=14.0)
    parser.add_argument("--min-skew", type=float, default=1.5)
    parser.add_argument("--max-adapted-skew", type=float, default=8.0)
    parser.add_argument("--max-adapted-gini", type=float, default=0.6)
    parser.add_argument("--min-adapt-improvement", type=float, default=2.0)
    parser.add_argument("--out", default="BENCH_hotspot.json")
    args = parser.parse_args(argv)
    report = run_benchmark()
    print(_render(report))
    print(_render_timing(report))
    with open(args.out, "w") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    print(f"[saved to {args.out}]")
    failures = check_gates(
        report,
        max_overhead_us=args.max_overhead_us,
        min_skew=args.min_skew,
        max_adapted_skew=args.max_adapted_skew,
        max_adapted_gini=args.max_adapted_gini,
        min_adapt_improvement=args.min_adapt_improvement,
    )
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
