"""The fused run report: metrics + traces + loadmap + benches in one place.

``repro report`` runs one fig8-style workload — build a Markov network,
publish every peer, issue a batch of range queries — with the **full**
observability plane enabled (metrics registry, span tracing, flight
recording), then fuses every signal into a single JSON document:

* ``meta`` — command line, seed, scale knobs, fault plan;
* ``stats`` — :meth:`repro.core.network.HyperMNetwork.stats`;
* ``metrics`` — registry snapshot plus the fabric's per-kind counters;
* ``energy`` — the :class:`repro.net.energy.EnergyLedger` snapshot;
* ``loadmap`` — :func:`repro.obs.loadmap.build_loadmap` (per-zone /
  per-peer rows, hotspot top-k, Gini/max-mean skew);
* ``operations`` — per-op hop/byte histograms from the flight recorder;
* ``flight`` — ring-buffer health (edges kept/evicted, sampling rate);
* ``phases`` — the span-tree flame rows (self vs total time);
* ``resources`` — peak RSS via :func:`repro.obs.rss.rss_snapshot`;
* ``bench`` — any ``BENCH_*.json`` files found in ``--bench-dir``.

The document validates against :func:`repro.obs.schema.check_report`,
and :func:`render_markdown` renders the human-readable twin.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from repro.evaluation.workloads import build_markov_network
from repro.exceptions import ValidationError
from repro.obs.flight import FlightRecorder
from repro.obs.loadmap import build_loadmap
from repro.obs.profile import phase_rows
from repro.obs.registry import MetricsRegistry
from repro.obs.rss import rss_snapshot
from repro.obs.trace import TraceRecorder
from repro.runtime import run_context
from repro.utils.rng import ensure_rng
from repro.utils.tables import format_table


def collect_bench_reports(bench_dir) -> dict:
    """Load every ``BENCH_*.json`` in ``bench_dir`` keyed by bench name."""
    out: dict = {}
    root = Path(bench_dir)
    if not root.is_dir():
        return out
    for path in sorted(root.glob("BENCH_*.json")):
        name = path.stem[len("BENCH_"):]
        try:
            with open(path) as handle:
                out[name] = json.load(handle)
        except (OSError, json.JSONDecodeError):
            out[name] = {"error": f"unreadable bench report: {path.name}"}
    return out


def run_report(
    *,
    n_peers: int = 15,
    items_per_peer: int = 100,
    dimensionality: int = 64,
    n_queries: int = 8,
    epsilon: float = 0.5,
    rng=None,
    seed: int = 0,
    top_k: int = 10,
    bench_dir=None,
    trace_out=None,
    flight_out=None,
) -> dict:
    """Run the instrumented fig8-style workload; returns the fused report.

    ``trace_out``/``flight_out``, when given, also export the raw span
    and flight JSONL artefacts next to the report (the files CI archives
    and schema-checks). A negative ``n_queries`` or ``top_k`` raises
    :class:`~repro.exceptions.ValidationError` before any network is built.
    """
    for name, value in (("n_queries", n_queries), ("top_k", top_k)):
        if value < 0:
            raise ValidationError(f"{name} must be >= 0, got {value}")
    generator = ensure_rng(seed if rng is None else rng)
    recorder = TraceRecorder()
    flight = FlightRecorder(capacity=200_000)
    registry = MetricsRegistry()
    with run_context(metrics=registry, tracer=recorder, flight=flight):
        workload, dissemination = build_markov_network(
            n_peers=n_peers,
            items_per_peer=items_per_peer,
            dimensionality=dimensionality,
            rng=generator,
        )
        network = workload.network
        query_rows = generator.integers(
            0, len(workload.data), size=n_queries
        )
        for row in query_rows:
            network.range_query(
                np.asarray(workload.data[int(row)]), epsilon
            )
        stats = network.stats()
        loadmap = build_loadmap(network, top_k=top_k)
    report = {
        "meta": {
            "command": "report",
            "generated_by": "repro report",
            "seed": seed,
            "n_peers": n_peers,
            "items_per_peer": items_per_peer,
            "dimensionality": dimensionality,
            "n_queries": int(n_queries),
            "epsilon": float(epsilon),
            "items_published": (
                dissemination.items_published if dissemination else 0
            ),
        },
        "stats": stats,
        "metrics": {
            "registry": registry.snapshot(),
            "fabric": network.fabric.metrics.snapshot(),
        },
        "energy": network.fabric.energy.snapshot(),
        "loadmap": loadmap,
        "operations": flight.per_op_histograms(),
        "flight": flight.snapshot(),
        "phases": phase_rows(recorder.spans),
        "resources": rss_snapshot(),
    }
    if bench_dir is not None:
        report["bench"] = collect_bench_reports(bench_dir)
    if trace_out is not None:
        recorder.write_jsonl(trace_out)
    if flight_out is not None:
        flight.write_jsonl(flight_out)
    return report


def _hotspot_rows(loadmap: dict) -> list[list]:
    return [
        [
            row["level"], row["node"],
            "-" if row["peer"] is None else row["peer"],
            row["bytes"], row["store_rows"], row["query_hits"],
        ]
        for row in loadmap["hotspots"]["zones"]
    ]


def render_markdown(report: dict) -> str:
    """Human-readable twin of the fused report (Markdown-ish tables)."""
    meta = report["meta"]
    lines = [
        "# Hyper-M run report",
        "",
        f"- peers: {meta['n_peers']} × {meta['items_per_peer']} items, "
        f"{meta['dimensionality']}-d, seed {meta['seed']}",
        f"- queries: {meta['n_queries']} range queries at "
        f"epsilon {meta['epsilon']}",
        "",
    ]
    fabric = report["stats"]["fabric"]
    lines.append(format_table(
        ["metric", "value"],
        [
            ["messages", fabric["messages"]],
            ["hops", fabric["hops"]],
            ["bytes", fabric["bytes"]],
            ["retransmits", fabric["retransmits"]],
            ["duplicates", fabric["duplicates"]],
            ["energy (µJ)", f"{fabric['energy']:.0f}"],
            ["energy max/mean", f"{report['energy']['max_over_mean']:.2f}"],
            ["peak RSS (MiB)", report.get("resources", {}).get(
                "peak_rss_mb", "-")],
        ],
        title="fabric totals",
    ))
    lines.append("")
    op_rows = [
        [
            kind, row["ops"], f"{row['hops']['mean']:.1f}",
            int(row["hops"]["max"]), f"{row['bytes']['mean']:.0f}",
            row["drops"], row["retransmits"], row["duplicates"],
        ]
        for kind, row in report["operations"].items()
    ]
    lines.append(format_table(
        [
            "operation", "ops", "hops/op", "max", "bytes/op",
            "drops", "retx", "dup",
        ],
        op_rows,
        title="per-operation routing cost (flight recorder)",
    ))
    lines.append("")
    skew = report["loadmap"]["skew"]
    lines.append(format_table(
        ["dimension", "gini", "max/mean"],
        [
            [name, f"{block['gini']:.3f}", f"{block['max_over_mean']:.2f}"]
            for name, block in skew.items()
        ],
        title="load skew",
    ))
    lines.append("")
    lines.append(format_table(
        ["level", "node", "peer", "bytes", "rows", "query hits"],
        _hotspot_rows(report["loadmap"]),
        title=f"hottest zones (top {len(report['loadmap']['hotspots']['zones'])})",
    ))
    phases = report.get("phases") or []
    if phases:
        lines.append("")
        phase_table_rows = [
            [
                row["phase"], row["calls"],
                f"{row['total_s']:.3f}", f"{row['self_s']:.3f}",
            ]
            for row in phases[:12]
        ]
        lines.append(format_table(
            ["phase", "count", "total s", "self s"],
            phase_table_rows,
            title="phase flame (top rows)",
        ))
    bench = report.get("bench") or {}
    if bench:
        lines.append("")
        lines.append(format_table(
            ["bench", "fields"],
            [[name, len(doc)] for name, doc in sorted(bench.items())],
            title="fused bench reports",
        ))
    return "\n".join(lines)
