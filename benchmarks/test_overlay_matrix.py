#!/usr/bin/env python
"""Head-to-head dissemination matrix across every overlay backend.

Runs :func:`repro.evaluation.overlay_matrix.run_overlay_matrix` at a
CI-friendly scale: every registered backend (CAN, BATON, VBI)
receives the identical Markov workload and is measured on
full publication, epoch-delta repair vs full republish, and
recall-checked range queries.

Correctness gates come first: the experiment itself raises if any
backend's unbudgeted range queries fall below recall 1.0 (Theorem 4.1
no-false-dismissal), so a broken backend can never post a time.

The headline numbers are ratios (robust across machines, like the
other microbench reports):

* ``bytes_speedup`` — mean over backends of full-republish bytes /
  delta-repair bytes (gate: >= 2x on every backend);
* ``hops_speedup`` — the same ratio in overlay hops.

Usage::

    PYTHONPATH=src python benchmarks/test_overlay_matrix.py
    PYTHONPATH=src python benchmarks/test_overlay_matrix.py \
        --min-speedup 2 --out BENCH_overlay_matrix.json

or under pytest (same gates, table saved to ``benchmarks/results``)::

    PYTHONPATH=src python -m pytest benchmarks/test_overlay_matrix.py -s
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict

from repro.evaluation.overlay_matrix import run_overlay_matrix
from repro.overlay.registry import overlay_names
from repro.utils.tables import format_table

DEFAULTS = {
    "n_peers": 8,
    "items_per_peer": 60,
    "dimensionality": 32,
    "n_clusters": 6,
    "levels_used": 3,
    "mutation_fraction": 0.10,
    "n_queries": 6,
    "seed": 7,
}


def run_benchmark(config: dict | None = None) -> dict:
    """Run the matrix on every backend; return the JSON report."""
    cfg = {**DEFAULTS, **(config or {})}
    rows = run_overlay_matrix(
        n_peers=cfg["n_peers"],
        items_per_peer=cfg["items_per_peer"],
        dimensionality=cfg["dimensionality"],
        n_clusters=cfg["n_clusters"],
        levels_used=cfg["levels_used"],
        mutation_fraction=cfg["mutation_fraction"],
        n_queries=cfg["n_queries"],
        rng=cfg["seed"],
    )
    return {
        "benchmark": "overlay_matrix",
        **{k: cfg[k] for k in sorted(DEFAULTS)},
        "overlays": [row.overlay for row in rows],
        "rows": [asdict(row) for row in rows],
        "bytes_speedup": sum(r.bytes_speedup for r in rows) / len(rows),
        "hops_speedup": sum(r.hops_speedup for r in rows) / len(rows),
    }


def check_gates(report: dict, *, min_speedup: float) -> list[str]:
    """Return gate-failure messages (empty means every gate passed)."""
    failures = []
    missing = [
        name for name in overlay_names()
        if name not in report["overlays"]
    ]
    if missing:
        failures.append(f"backends missing from the matrix: {missing}")
    for row in report["rows"]:
        if row["recall"] < 1.0:
            failures.append(
                f"{row['overlay']}: recall {row['recall']:.3f} < 1.0"
            )
        for field in ("bytes_speedup", "hops_speedup"):
            if row[field] < min_speedup:
                failures.append(
                    f"{row['overlay']}: {field} {row[field]:.2f}x below "
                    f"the {min_speedup:.0f}x delta-repair gate"
                )
    return failures


def _render(report: dict) -> str:
    header = (
        "overlay-matrix benchmark — identical workload on every backend\n"
        f"  mean delta-repair win: {report['bytes_speedup']:.2f}x bytes, "
        f"{report['hops_speedup']:.2f}x hops\n"
    )
    names = list(report["rows"][0])
    return header + format_table(
        names,
        [[row[name] for name in names] for row in report["rows"]],
        title="per-backend publish / delta / query costs",
    )


def test_overlay_matrix_gates(record_table):
    """Every backend completes with recall 1.0 and a >= 2x delta win."""
    report = run_benchmark()
    record_table("overlay_matrix", _render(report))
    failures = check_gates(report, min_speedup=2.0)
    assert not failures, "; ".join(failures)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--min-speedup", type=float, default=2.0)
    parser.add_argument("--out", default="BENCH_overlay_matrix.json")
    args = parser.parse_args(argv)
    report = run_benchmark()
    print(_render(report))
    with open(args.out, "w") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    print(f"[saved to {args.out}]")
    failures = check_gates(report, min_speedup=args.min_speedup)
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
