#!/usr/bin/env python
"""Query-serving throughput/latency: batched engine vs sequential plane.

One published Markov-corpus Hyper-M network serves the same range-query
stream two ways (see :mod:`repro.evaluation.serving`):

* **Sequential** — :func:`repro.core.queries.range_query` per request,
  one per-level BLAS pass each.
* **Batched** — :class:`repro.serve.ServeEngine` coalescing the stream
  into one stacked intersection GEMM per level per batch, with
  generation-keyed candidate/translation caches. Two regimes: *hot*
  (warm engine, Zipf-skewed stream — the headline ``speedup``) and
  *cold* (fresh engine, distinct queries — ``cold_speedup``, pure
  batching with every cache missing).

A third arm drives the asyncio front door open-loop at a fixed fraction
of measured capacity, recording QPS and coordinated-omission-free
p50/p99 latency. Result parity (identical item sets per request) is
asserted inside the runner, so the speedups are pure execution strategy.

Gates: batching not slower than the sequential arm (hot speedup >= 1x)
at batch size >= 8; the open-loop arm must complete every admitted
request with positive QPS and sane percentiles. Absolute latencies are
machine-dependent, so the latency gate is loose. The speedup divides by
the *routed* path's wall time, so it falls whenever routing gets faster
(the CAN zone table took it under the old 2x floor and 20% outside the
committed ``BENCH_query_serve.json`` ratio with the batched arm
unchanged); absolute tracking is ``benchmarks/e2e``'s job.

Usage::

    PYTHONPATH=src python benchmarks/test_query_serve.py
    PYTHONPATH=src python benchmarks/test_query_serve.py \
        --min-speedup 1.0 --min-batch 8 --max-p99-ms 500 \
        --out BENCH_query_serve.json

or under pytest (same gates, table saved to ``benchmarks/results``)::

    PYTHONPATH=src python -m pytest benchmarks/test_query_serve.py -s
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.evaluation.serving import run_serve_bench

DEFAULTS = {
    "n_peers": 20,
    "items_per_peer": 100,
    "dimensionality": 64,
    "n_clusters": 6,
    "levels_used": 3,
    "seed": 3,
    "n_distinct": 24,
    "n_queries": 96,
    "epsilon": 0.25,
    "max_peers": 3,
    "batch_size": 16,
    "repeats": 3,
    "load_fraction": 0.8,
}


def run_benchmark(config: dict | None = None) -> dict:
    """Run the serving benchmark; returns the JSON-safe report."""
    cfg = {**DEFAULTS, **(config or {})}
    return run_serve_bench(**cfg)


def check_gates(
    report: dict,
    *,
    min_speedup: float = 1.0,
    min_batch: int = 8,
    max_p99_ms: float = 500.0,
) -> list[str]:
    """Return gate-failure messages (empty means every gate passed)."""
    failures = []
    if report["batch_size"] < min_batch:
        failures.append(
            f"batch size {report['batch_size']} below the required "
            f">= {min_batch} for the speedup gate"
        )
    if report["speedup"] < min_speedup:
        failures.append(
            f"batched speedup {report['speedup']:.2f}x below the "
            f"{min_speedup:.1f}x gate"
        )
    load = report["load"]
    if load["completed"] + load["shed"] != load["requests"]:
        failures.append(
            f"load arm lost requests: {load['completed']} completed + "
            f"{load['shed']} shed != {load['requests']} offered"
        )
    if load["completed_qps"] <= 0:
        failures.append("load arm completed no requests")
    if load["completed"] and not 0 < load["p50_ms"] <= load["p99_ms"]:
        failures.append(
            f"latency percentiles insane: p50 {load['p50_ms']}ms, "
            f"p99 {load['p99_ms']}ms"
        )
    if load["p99_ms"] > max_p99_ms:
        failures.append(
            f"open-loop p99 {load['p99_ms']:.1f}ms above the loose "
            f"{max_p99_ms:.0f}ms gate"
        )
    cache = report["engine"]["candidate_cache"]
    if cache["hits"] <= 0:
        failures.append("candidate cache never hit on a Zipf hot stream")
    return failures


def _render(report: dict) -> str:
    load = report["load"]
    cache = report["engine"]["candidate_cache"]
    total_lookups = cache["hits"] + cache["misses"]
    hit_rate = cache["hits"] / total_lookups if total_lookups else 0.0
    return (
        "query-serve benchmark — batched engine vs sequential query plane\n"
        f"  hot stream ({report['n_queries']} queries, batch "
        f"{report['batch_size']}): {report['speedup']:.2f}x speedup "
        f"({report['sequential_qps']:.0f} -> "
        f"{report['batched_qps']:.0f} qps)\n"
        f"  cold distinct ({report['n_distinct']} queries): "
        f"{report['cold_speedup']:.2f}x speedup, caches empty\n"
        f"  open loop @ {load['offered_qps']:.0f} qps offered: "
        f"{load['completed_qps']:.0f} qps completed, "
        f"p50 {load['p50_ms']:.2f}ms, p99 {load['p99_ms']:.2f}ms, "
        f"{load['shed']} shed, mean batch {load['mean_batch']:.1f}\n"
        f"  caches: candidate hit rate {hit_rate:.0%} "
        f"({cache['hits']}/{total_lookups}), "
        f"{cache['stale']} stale drops | "
        f"{report['engine']['batches']} batches served"
    )


def test_query_serve_gates(record_table):
    """Batched serving is not slower than the sequential plane on a hot
    stream (batch >= 8), and the open-loop arm yields sane QPS/percentiles."""
    report = run_benchmark()
    record_table("query_serve", _render(report))
    failures = check_gates(report)
    assert not failures, "; ".join(failures)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--min-speedup", type=float, default=1.0)
    parser.add_argument("--min-batch", type=int, default=8)
    parser.add_argument("--max-p99-ms", type=float, default=500.0)
    parser.add_argument("--out", default="BENCH_query_serve.json")
    args = parser.parse_args(argv)
    report = run_benchmark()
    print(_render(report))
    with open(args.out, "w") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    print(f"[saved to {args.out}]")
    failures = check_gates(
        report,
        min_speedup=args.min_speedup,
        min_batch=args.min_batch,
        max_p99_ms=args.max_p99_ms,
    )
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
