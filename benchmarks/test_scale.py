#!/usr/bin/env python
"""Scale benchmark: bulk-built per-level grids + engine-plane queries.

One run builds a per-level CAN overlay for every published wavelet level
as an analytic power-of-two grid (:mod:`repro.overlay.can.bulk`), bulk-
publishes ``spheres_per_peer`` cluster spheres per peer per level, then
times a batch of translated range queries driven entirely through the
execution-engine plane (:mod:`repro.engine`). See
:mod:`repro.evaluation.scale` for the runner and its fidelity notes.

Headline numbers: ``peers_per_s`` (build + publish), ``queries_per_s``
(index phase), and ``resources.peak_rss_mb``. The CI-gated ratio is
``bulk_speedup`` — wall clock of protocol-grown construction (routed
joins + routed inserts) over bulk construction at a small equal size on
the same machine.

Gates: bulk construction beats routed construction by >= the gate
(default 5x; the ratio falls whenever the routed protocol gets faster —
the CAN zone table cut it to about a third — so it is a floor, not a
tracked number, and CI no longer compares it with the committed
``BENCH_scale.json``); when the sharded engine is selected its scores
must match the inline oracle at 1e-9 (checked inside the runner *before*
timing — a divergent sharded path raises rather than reporting).

Usage::

    PYTHONPATH=src python benchmarks/test_scale.py
    PYTHONPATH=src python benchmarks/test_scale.py \
        --peers 131072 --engine sharded --workers 2 --out BENCH_scale.json

or under pytest (smoke scale, same gates, table saved to
``benchmarks/results``)::

    PYTHONPATH=src python -m pytest benchmarks/test_scale.py -s
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.evaluation.scale import run_scale_bench

DEFAULTS = {
    "n_peers": 2048,
    "spheres_per_peer": 2,
    "dimensionality": 16,
    "levels_used": 3,
    "n_queries": 32,
    "epsilon": 0.25,
    "engine": "sharded",
    "workers": 2,
    "seed": 0,
    "baseline_peers": 192,
}


def run_benchmark(config: dict | None = None) -> dict:
    """Run the scale benchmark; returns the JSON-safe report."""
    cfg = {**DEFAULTS, **(config or {})}
    return run_scale_bench(**cfg)


def check_gates(report: dict, *, min_bulk_speedup: float = 5.0) -> list[str]:
    """Return gate-failure messages (empty means every gate passed)."""
    failures = []
    if report["bulk_speedup"] < min_bulk_speedup:
        failures.append(
            f"bulk construction speedup {report['bulk_speedup']:.1f}x "
            f"below the {min_bulk_speedup:.0f}x gate"
        )
    if report["queries_per_s"] <= 0:
        failures.append("query phase completed no queries")
    if report["peers_per_s"] <= 0:
        failures.append("build phase produced no peers")
    parity = report["parity"]
    if report["engine"] != "serial" and parity["checked"] < 1:
        failures.append(
            "parallel engine selected but no parity queries were checked"
        )
    if parity["max_abs_delta"] > 1e-9:
        failures.append(
            f"sharded/inline score delta {parity['max_abs_delta']} "
            "exceeds 1e-9"
        )
    rss = report["resources"]["peak_rss_bytes"]
    if rss <= 0:
        failures.append(f"peak RSS not captured ({rss})")
    return failures


def _render(report: dict) -> str:
    parity = report["parity"]
    return (
        "scale benchmark — bulk grid construction + engine-plane queries\n"
        f"  {report['n_peers']} peers x {report['levels_used']} levels, "
        f"{report['spheres_published']} spheres published in "
        f"{report['build_s'] + report['publish_s']:.2f}s "
        f"({report['peers_per_s']:.0f} peers/s, "
        f"{report['spheres_per_s']:.0f} spheres/s)\n"
        f"  {report['n_queries']} queries via the {report['engine']} "
        f"engine ({report['workers']} workers): "
        f"{report['queries_per_s']:.0f} qps, "
        f"{report['mean_peers_ranked']:.1f} peers ranked each\n"
        f"  bulk vs routed construction at {report['baseline_peers']} "
        f"peers: {report['bulk_speedup']:.1f}x "
        f"({report['routed_small_s']:.3f}s -> "
        f"{report['bulk_small_s']:.3f}s)\n"
        f"  parity: {parity['checked']} queries, max delta "
        f"{parity['max_abs_delta']:.2e} | peak RSS "
        f"{report['resources']['peak_rss_mb']:.1f} MiB"
    )


def test_scale_gates(record_table):
    """Bulk construction beats routed >= 5x; the sharded engine matches
    the inline oracle at 1e-9; throughput and RSS are captured."""
    report = run_benchmark()
    record_table("scale", _render(report))
    failures = check_gates(report)
    assert not failures, "; ".join(failures)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--peers", type=int, default=DEFAULTS["n_peers"])
    parser.add_argument(
        "--engine", default=DEFAULTS["engine"],
        choices=("serial", "sharded"),
    )
    parser.add_argument("--workers", type=int, default=DEFAULTS["workers"])
    parser.add_argument("--queries", type=int, default=DEFAULTS["n_queries"])
    parser.add_argument("--min-bulk-speedup", type=float, default=5.0)
    parser.add_argument("--out", default="BENCH_scale.json")
    args = parser.parse_args(argv)
    report = run_benchmark({
        "n_peers": args.peers,
        "engine": args.engine,
        "workers": args.workers,
        "n_queries": args.queries,
    })
    print(_render(report))
    with open(args.out, "w") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    print(f"[saved to {args.out}]")
    failures = check_gates(report, min_bulk_speedup=args.min_bulk_speedup)
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
