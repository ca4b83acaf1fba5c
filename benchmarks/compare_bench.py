#!/usr/bin/env python
"""Compare a fresh benchmark report against the committed baseline.

The ratio benchmarks (``benchmarks/test_hotspot_skew.py``,
``benchmarks/test_overlay_matrix.py``, …) emit JSON reports whose
headline numbers are *speedups* — ratios of a baseline arm's cost to the
optimised arm's on the same machine.
Ratios are what make cross-machine comparison meaningful: CI runners are
slower than the laptops that produced the committed baselines, but both
measure the same relative win, so a shrinking ratio is a genuine code
regression rather than runner noise.

Usage::

    python benchmarks/compare_bench.py BENCH_hotspot.json \
        fresh_BENCH_hotspot.json --max-regression 0.20

Exits non-zero when any compared speedup field in the fresh report is
more than ``--max-regression`` (default 20%) below the baseline. Fields
present in only one of the two reports are skipped with a note (new
benchmarks don't fail old baselines and vice versa).

Under GitHub Actions (``GITHUB_STEP_SUMMARY`` set) each run also appends
a per-metric markdown table to the job summary, so the ratio drift is
readable from the run page without opening logs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

#: Headline ratio fields compared when present in both reports.
SPEEDUP_FIELDS = (
    "speedup", "cold_speedup", "bytes_speedup",
    "hops_speedup", "adapt_skew_speedup", "bulk_speedup",
)


def compare(
    baseline: dict, fresh: dict, *, max_regression: float
) -> tuple[list[str], list[dict]]:
    """Compare the reports; returns (failure messages, per-metric rows)."""
    failures: list[str] = []
    rows: list[dict] = []
    for field in SPEEDUP_FIELDS:
        if field not in baseline and field not in fresh:
            continue
        if field not in baseline or field not in fresh:
            print(f"note: {field!r} present in only one report; skipped")
            continue
        base = float(baseline[field])
        new = float(fresh[field])
        if base <= 0:
            print(f"note: baseline {field!r} is {base}; skipped")
            continue
        change = (new - base) / base
        status = "OK" if change >= -max_regression else "REGRESSION"
        rows.append({
            "field": field, "baseline": base, "fresh": new,
            "change": change, "status": status,
        })
        print(
            f"{field}: baseline {base:.2f}x -> fresh {new:.2f}x "
            f"({change:+.1%}) [{status}]"
        )
        if change < -max_regression:
            failures.append(
                f"{field} regressed {-change:.1%} "
                f"(limit {max_regression:.0%}): "
                f"{base:.2f}x -> {new:.2f}x"
            )
    if not rows:
        failures.append(
            "no speedup fields were comparable between the two reports"
        )
    return failures, rows


def render_summary(name: str, rows: list[dict]) -> str:
    """Per-metric markdown table for the GitHub Actions job summary."""
    lines = [
        f"### Bench regression gate — {name}",
        "",
        "| metric | baseline | fresh | change | status |",
        "| --- | ---: | ---: | ---: | --- |",
    ]
    for row in rows:
        marker = "✅" if row["status"] == "OK" else "❌"
        lines.append(
            f"| {row['field']} | {row['baseline']:.2f}x "
            f"| {row['fresh']:.2f}x | {row['change']:+.1%} "
            f"| {marker} {row['status']} |"
        )
    return "\n".join(lines) + "\n\n"


def write_step_summary(name: str, rows: list[dict]) -> None:
    """Append the markdown table to ``$GITHUB_STEP_SUMMARY`` when set."""
    path = os.environ.get("GITHUB_STEP_SUMMARY")
    if not path or not rows:
        return
    with open(path, "a") as handle:
        handle.write(render_summary(name, rows))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline", help="committed baseline JSON report")
    parser.add_argument("fresh", help="freshly generated JSON report")
    parser.add_argument(
        "--max-regression",
        type=float,
        default=0.20,
        help="maximum tolerated fractional speedup drop (default 0.20)",
    )
    args = parser.parse_args(argv)
    with open(args.baseline) as handle:
        baseline = json.load(handle)
    with open(args.fresh) as handle:
        fresh = json.load(handle)
    name = baseline.get("benchmark", args.baseline)
    print(f"bench-regression gate: {name}")
    failures, rows = compare(
        baseline, fresh, max_regression=args.max_regression
    )
    write_step_summary(name, rows)
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
