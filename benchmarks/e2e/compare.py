"""Compare two result files of ``run.py --out`` under BENCHMARK.json's bounds.

    python3 benchmarks/e2e/compare.py A.json B.json

One row per (workload, metric). An end-to-end metric *regressed* when
B's median is worse than A's by more than the metric's bound, and is
*unresolved* when either file's own repeats spread (quartile distance
over median; range over median below four repeats) wider than that
bound. Per-layer counts must repeat exactly; per-layer times have no
bound and are listed for reading. Exit code 1 on any regression or
count mismatch.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

SPEC = json.loads(
    (Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text()
)
#: Per-layer units that name a count made by the program: same seed, same
#: value. The listed exceptions depend on asyncio timing.
EXACT_UNITS = {"count", "B", "uJ"}
TIMING_DEPENDENT = {"serve.mean_batch", "serve.shed"}


def _values(runs: list, name: str) -> list:
    return [run["metrics"][name]["value"] for run in runs if name in run["metrics"]]


def _spread(values: list) -> float | None:
    """Run-to-run spread as a share of the median; None for one run."""
    median = statistics.median(values)
    if len(values) < 2 or median == 0:
        return None
    if len(values) < 4:
        return (max(values) - min(values)) / abs(median)
    quartiles = statistics.quantiles(values, n=4)
    return (quartiles[2] - quartiles[0]) / abs(median)


def compare(a_runs: dict, b_runs: dict) -> int:
    bad = 0
    print(f"{'workload':15s} {'metric':34s} {'A':>14s} {'B':>14s} {'worse':>8s}  verdict")
    for workload in (w["name"] for w in SPEC["workloads"]):
        a, b = a_runs.get(workload, []), b_runs.get(workload, [])
        for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
            name = metric["name"]
            a_values, b_values = _values(a, name), _values(b, name)
            if not a_values or not b_values:
                continue
            a_median = statistics.median(a_values)
            b_median = statistics.median(b_values)
            sign = 1.0 if metric["better"] == "lower" else -1.0
            worse = sign * (b_median - a_median) / abs(a_median) if a_median else 0.0
            bound = metric.get("bound")
            if bound is not None:
                spreads = [s for s in (_spread(a_values), _spread(b_values)) if s]
                if any(spread > bound for spread in spreads):
                    verdict = "unresolved (spread > bound)"
                elif worse > bound:
                    verdict = f"REGRESSED (bound {bound:.0%})"
                    bad += 1
                else:
                    verdict = "ok"
            elif metric["unit"] in EXACT_UNITS and name not in TIMING_DEPENDENT:
                same = set(a_values) == set(b_values) and len(set(a_values)) == 1
                verdict = "exact" if same else "COUNT DIFFERS"
                bad += not same
                if same and a_median == 0:
                    continue  # layer not exercised by this workload
            else:
                verdict = ""
            print(
                f"{workload:15s} {name:34s} {a_median:14.6g} {b_median:14.6g} "
                f"{worse:+8.1%}  {verdict}"
            )
    return 1 if bad else 0


def main() -> int:
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    a, b = (json.loads(Path(path).read_text())["runs"] for path in sys.argv[1:])
    return compare(a, b)


if __name__ == "__main__":
    sys.exit(main())
