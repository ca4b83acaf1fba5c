"""Command-line interface: regenerate any paper experiment.

Usage::

    python -m repro list
    python -m repro fig8b --peers 30 --seed 7
    python -m repro fig10a --scale paper
    python -m repro fig8b --json
    python -m repro trace fig8b --out trace.jsonl
    python -m repro profile fig8b --scale quick
    python -m repro profile fig8b --json
    python -m repro faults --loss 0 0.1 0.2 --crash-fraction 0.2
    python -m repro fig10a --fault-plan loss=0.1,seed=3
    python -m repro fig8b --overlay baton
    python -m repro matrix
    python -m repro all

Each experiment prints the same series its benchmark target produces.
``--scale quick`` (default) runs in seconds; ``--scale paper`` uses
parameters proportioned like the paper's own setups (minutes).
``--json`` dumps the series plus an observability metrics snapshot as
machine-readable JSON. ``trace`` records the experiment's span tree to
JSONL; ``profile`` prints the per-phase time/hops/bytes breakdown (see
``docs/observability.md``). ``faults`` sweeps range-query recall across
message-loss rates, and ``--fault-plan`` runs *any* experiment on a
lossy fabric (see ``docs/faults.md``). ``--overlay`` selects the
overlay backend for any experiment; ``matrix`` races every registered
backend head-to-head on one workload.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.engine import engine_names
from repro.evaluation.experiments import (
    EXPERIMENTS,
    SCALES,
    ExperimentOutput,
    at_least,
    render_markdown,
    run_experiment,
    scale_params,
)
from repro.evaluation.report import (
    render_markdown as render_run_report,
    run_report,
)
from repro.evaluation.reporting import metrics_to_table
from repro.evaluation.scale import run_scale_bench
from repro.evaluation.serving import run_serve_bench
from repro.evaluation.workloads import build_markov_network
from repro.faults import parse_fault_plan
from repro.overlay.adapt import AdaptConfig
from repro.overlay.registry import overlay_names, resolve_overlay
from repro.obs import MetricsRegistry, TraceRecorder
from repro.obs.profile import (
    flame_summary,
    phase_rows,
    phase_table,
    top_spans,
    top_spans_table,
)
from repro.runtime import run_context
from repro.utils.tables import format_table


def build_parser() -> argparse.ArgumentParser:
    """Build the CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate the Hyper-M paper's experiments.",
    )
    # Run-context flags a command does not take read as unset in main().
    parser.set_defaults(adapt=False, overlay=None, fault_plan=None)
    sub = parser.add_subparsers(dest="command", required=True)
    listing = []

    def command(name, func, help_text):
        """Register one sub-command: its help line is its ``list`` line."""
        listing.append(f"{name:14s} {help_text}")
        cmd = sub.add_parser(name, help=help_text)
        cmd.set_defaults(func=func)
        return cmd

    command(
        "list", lambda args: print("\n".join(listing)) or 0,
        "list available experiments",
    )

    all_parser = command("all", _cmd_all, "run every experiment")
    _add_common_args(all_parser)
    all_parser.add_argument(
        "--output",
        default=None,
        help="write a Markdown report to this path instead of printing",
    )
    for name, row in EXPERIMENTS.items():
        cmd = command(name, _cmd_experiment, row.help)
        _add_common_args(cmd)
        for option in row.options:
            if option.flag is not None:
                cmd.add_argument(
                    "--" + option.dest.replace("_", "-"), **option.flag
                )

    trace_parser = command(
        "trace", _cmd_trace,
        "run one experiment with span tracing; write a JSONL trace",
    )
    trace_parser.add_argument(
        "experiment", choices=sorted(EXPERIMENTS), help="experiment to trace"
    )
    _add_common_args(trace_parser)
    trace_parser.add_argument(
        "--out",
        default=None,
        help="trace output path (default: trace-<experiment>.jsonl)",
    )
    trace_parser.add_argument(
        "--depth", type=at_least(1), default=3,
        help="max depth of the printed flame summary",
    )

    profile_parser = command(
        "profile", _cmd_profile,
        "run one experiment traced; print per-phase time/hops/bytes",
    )
    profile_parser.add_argument(
        "experiment", choices=sorted(EXPERIMENTS),
        help="experiment to profile",
    )
    _add_common_args(profile_parser)
    profile_parser.add_argument(
        "--top", type=at_least(1), default=10,
        help="how many individually slowest spans to list",
    )

    stats_parser = command(
        "stats", _cmd_stats,
        "build a network at the chosen scale; print its health stats",
    )
    _add_common_args(stats_parser)
    stats_parser.add_argument(
        "--churn", type=at_least(0), default=0, metavar="N",
        help="make N peers leave after publishing (exercises the "
        "level stores' tombstone/compaction accounting)",
    )

    report_parser = command(
        "report", _cmd_report,
        "run a fully instrumented fig8-style workload; fuse metrics, "
        "traces, loadmap, and benches into one run report",
    )
    _add_common_args(report_parser)
    report_parser.add_argument(
        "--queries", type=at_least(0), default=None, metavar="N",
        help="range queries to issue (default: the scale preset's count)",
    )
    report_parser.add_argument(
        "--epsilon", type=float, default=0.5,
        help="range-query radius in the original space",
    )
    report_parser.add_argument(
        "--top-k", type=at_least(0), default=10,
        help="hotspot ranking depth in the loadmap",
    )
    report_parser.add_argument(
        "--out", default=None, metavar="PATH",
        help="also write the report JSON to this path",
    )
    report_parser.add_argument(
        "--trace-out", default=None, metavar="PATH",
        help="also export the span trace as JSONL",
    )
    report_parser.add_argument(
        "--flight-out", default=None, metavar="PATH",
        help="also export the flight-recorder log as JSONL",
    )
    report_parser.add_argument(
        "--bench-dir", default=None, metavar="DIR",
        help="fuse every BENCH_*.json found in this directory",
    )

    serve_parser = command(
        "serve-bench", _cmd_serve_bench,
        "drive the batched serving engine open-loop; report the "
        "batched-vs-sequential speedup, QPS, and p50/p99 latency",
    )
    _add_common_args(serve_parser)
    serve_parser.add_argument(
        "--queries", type=at_least(1), default=96, metavar="N",
        help="length of the Zipf-skewed hot query stream (default: 96)",
    )
    serve_parser.add_argument(
        "--distinct", type=at_least(1), default=24, metavar="N",
        help="distinct queries behind the hot stream (default: 24)",
    )
    serve_parser.add_argument(
        "--epsilon", type=float, default=0.25,
        help="range-query radius in the original space (default: 0.25)",
    )
    serve_parser.add_argument(
        "--batch-size", type=at_least(1), default=16, metavar="B",
        help="queries coalesced per stacked intersection pass "
        "(default: 16)",
    )
    serve_parser.add_argument(
        "--max-peers", type=at_least(0), default=3, metavar="N",
        help="retrieval contact budget per query (default: 3)",
    )
    serve_parser.add_argument(
        "--repeats", type=at_least(1), default=3, metavar="N",
        help="timing repeats; the minimum ratio is reported (default: 3)",
    )
    serve_parser.add_argument(
        "--load-fraction", type=float, default=0.8, metavar="F",
        help="open-loop offered rate as a fraction of measured "
        "steady-state capacity (default: 0.8)",
    )
    serve_parser.add_argument(
        "--out", default=None, metavar="PATH",
        help="also write the report JSON to this path",
    )

    scale_parser = command(
        "scale-bench", _cmd_scale_bench,
        "bulk-build per-level CAN grids at 10^5-peer scale and "
        "report publish/query throughput plus peak RSS",
    )
    _add_run_args(scale_parser)
    scale_parser.set_defaults(peers=2048)  # no --scale preset to size it
    scale_parser.add_argument(
        "--engine",
        choices=engine_names(),
        default="serial",
        help="execution engine of the query phase (default: serial); "
        "'sharded' fans per-level index work out to worker processes "
        "over shared memory (see docs/scaling.md)",
    )
    scale_parser.add_argument(
        "--workers", type=at_least(1), default=2, metavar="N",
        help="worker processes for the sharded engine (default: 2)",
    )
    scale_parser.add_argument(
        "--spheres-per-peer", type=at_least(1), default=2, metavar="N",
        help="cluster spheres published per peer per level (default: 2)",
    )
    scale_parser.add_argument(
        "--queries", type=at_least(1), default=32, metavar="N",
        help="translated range queries to time (default: 32)",
    )
    scale_parser.add_argument(
        "--epsilon", type=float, default=0.25,
        help="range-query radius in the original space (default: 0.25)",
    )
    scale_parser.add_argument(
        "--baseline-peers", type=at_least(2), default=192, metavar="N",
        help="size of the routed-vs-bulk construction race whose "
        "wall-clock ratio is the gated bulk_speedup (default: 192)",
    )
    scale_parser.add_argument(
        "--out", default=None, metavar="PATH",
        help="also write the report JSON to this path",
    )
    return parser


def _add_common_args(parser: argparse.ArgumentParser) -> None:
    _add_run_args(parser)
    parser.add_argument(
        "--scale",
        choices=sorted(SCALES),
        default="quick",
        help="parameter preset (quick: seconds; paper: minutes)",
    )
    parser.add_argument(
        "--plot",
        action="store_true",
        help="also sketch the series as an ASCII chart",
    )
    parser.add_argument(
        "--fault-plan",
        default=None,
        metavar="SPEC",
        help="run the experiment on a lossy fabric: a FaultPlan spec like "
        "'loss=0.1,dup=0.01,seed=3' applied to every network "
        "the command builds (see docs/faults.md)",
    )
    parser.add_argument(
        "--republish",
        choices=("none", "delta", "full"),
        default=None,
        help="staleness remedy between fig10c insert steps: none (paper "
        "scenario), delta (epoch-delta round per mutated peer), or full "
        "(withdraw + republish from scratch)",
    )
    parser.add_argument(
        "--adapt",
        action="store_true",
        help="enable the load-adaptation control loop on every network "
        "the command builds (zone rebalancing, replication retuning, "
        "quality-scored multicast; see docs/architecture.md)",
    )
    parser.add_argument(
        "--overlay",
        choices=overlay_names(),
        default=None,
        help="overlay backend for every network the command builds "
        "(default: can); for the matrix command this restricts the "
        "sweep to one backend",
    )


def _add_run_args(parser: argparse.ArgumentParser) -> None:
    """Flags every command honours, ``scale-bench`` included.

    ``scale-bench`` bulk-builds bare CAN grids on a clean fabric — no
    ``HyperMNetwork``, no scale preset, no chart — so it takes none of
    the flags :func:`_add_common_args` adds on top of these.
    """
    parser.add_argument(
        "--peers", type=at_least(1), default=None,
        help="override the peer count",
    )
    parser.add_argument(
        "--seed", type=at_least(0), default=0, help="master random seed"
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit machine-readable JSON (series + metrics snapshot)",
    )


def _json_default(value):
    """JSON fallback for numpy scalars and other ``.item()``-bearers."""
    item = getattr(value, "item", None)
    if callable(item):
        return item()
    raise TypeError(
        f"object of type {type(value).__name__} is not JSON serializable"
    )


def _run(args, name: str) -> ExperimentOutput:
    """Run table row ``name`` with every flag the parsed command took."""
    flags = vars(args)
    return run_experiment(
        name, scale=args.scale, seed=args.seed, peers=args.peers,
        plot=args.plot,
        **{
            option.dest: flags[option.dest]
            for option in EXPERIMENTS[name].options
            if option.dest in flags
        },
    )


def _payload(args, out: ExperimentOutput) -> dict:
    return {
        "experiment": out.name,
        "scale": args.scale,
        "seed": args.seed,
        "records": out.records,
        "metrics": out.metrics,
    }


def _dumps(document) -> str:
    return json.dumps(document, indent=2, default=_json_default)


def _cmd_experiment(args) -> int:
    out = _run(args, args.command)
    if args.json:
        print(_dumps(_payload(args, out)))
    else:
        print(out.text)
    return 0


def _cmd_all(args) -> int:
    """Every table row, in table order, in one of three renderings."""
    outputs = (_run(args, name) for name in EXPERIMENTS)
    if args.output:
        outputs = list(outputs)
        with open(args.output, "w") as handle:
            handle.write(render_markdown(outputs))
        print(f"wrote {len(outputs)} experiment reports to {args.output}")
    elif args.json:
        print(_dumps([_payload(args, out) for out in outputs]))
    else:
        for out in outputs:
            print(f"\n### {out.name}")
            print(out.text)
    return 0


def _print_report(args, report: dict, render) -> int:
    """Write ``--out`` if given, then print JSON or ``render(report)``."""
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(_dumps(report) + "\n")
        print(f"{args.command}: wrote {args.out}")
    if args.json:
        print(_dumps(report))
    else:
        print(render(report))
    return 0


def _cmd_trace(args) -> int:
    recorder = TraceRecorder()
    with run_context(tracer=recorder):
        _run(args, args.experiment)
    path = args.out or f"trace-{args.experiment}.jsonl"
    count = recorder.write_jsonl(path)
    print(f"trace: wrote {count} spans to {path}")
    print()
    print(flame_summary(recorder.spans, max_depth=args.depth))
    return 0


def _cmd_stats(args) -> int:
    """Build a workload network, optionally churn it, print health stats.

    Surfaces :meth:`HyperMNetwork.stats` — including the per-level
    columnar store health (live rows, tombstones, generation,
    compactions, mask passes and the rows each scanned) — without
    writing a script.
    """
    params = scale_params(args.scale, seed=args.seed, peers=args.peers)
    with run_context(metrics=MetricsRegistry()):
        workload, __ = build_markov_network(
            n_peers=params["n_peers"],
            items_per_peer=params["items_per_peer"],
            rng=params["rng"],
        )
        network = workload.network
        departures = min(args.churn, network.n_peers - 1)
        for peer_id in list(network.peers)[:departures]:
            # Clean departures (summaries withdrawn) so the store health
            # table actually shows tombstone/compaction activity.
            network.depart(peer_id, withdraw_summaries=True)
        stats = network.stats()
    if args.json:
        print(_dumps({
            "scale": args.scale,
            "seed": args.seed,
            "churned": departures,
            "stats": stats,
        }))
        return 0
    print(format_table(
        ["metric", "value"],
        [
            ["peers", stats["peers"]],
            ["online peers", stats["online_peers"]],
            ["total items", stats["total_items"]],
            ["fabric messages", stats["fabric"]["messages"]],
            ["fabric hops", stats["fabric"]["hops"]],
            ["fabric bytes", stats["fabric"]["bytes"]],
            ["energy total (µJ)", f"{stats['energy']['total']:.0f}"],
            ["energy mean/node (µJ)", f"{stats['energy']['mean_node']:.0f}"],
            ["energy max/node (µJ)", f"{stats['energy']['max_node']:.0f}"],
            ["energy max/mean", f"{stats['energy']['max_over_mean']:.2f}"],
        ],
        title=f"network stats ({args.scale} scale, churn={departures})",
    ))
    print()
    rows = []
    for level, entry in stats["levels"].items():
        store = entry["store"]
        rows.append([
            level,
            entry["nodes"],
            entry["stored_entries"],
            entry["distinct_spheres"],
            f"{entry['replication_factor']:.2f}",
            store["live_rows"],
            store["tombstones"],
            store["generation"],
            store["compactions"],
            store["mask_queries"],
            store["rows_scanned"] // max(store["mask_queries"], 1),
        ])
    print(format_table(
        [
            "level", "nodes", "stored", "distinct", "repl",
            "live", "tombstones", "generation", "compactions",
            "masks", "scanned/mask",
        ],
        rows,
        title="per-level store health",
    ))
    return 0


def _cmd_report(args) -> int:
    """Run the instrumented workload and emit the fused run report.

    Default output is the Markdown rendering; ``--json`` prints the full
    document (schema-checked in CI by ``python -m repro.obs.schema``).
    """
    params = scale_params(args.scale, seed=args.seed, peers=args.peers)
    n_queries = (
        args.queries if args.queries is not None else params["n_queries"]
    )
    report = run_report(
        n_peers=params["n_peers"],
        items_per_peer=params["items_per_peer"],
        n_queries=n_queries,
        epsilon=args.epsilon,
        seed=args.seed,
        top_k=args.top_k,
        bench_dir=args.bench_dir,
        trace_out=args.trace_out,
        flight_out=args.flight_out,
    )
    report["meta"]["scale"] = args.scale
    return _print_report(args, report, render_run_report)


def _cmd_serve_bench(args) -> int:
    """Run the serving benchmark; print the headline numbers.

    Same runner as ``benchmarks/test_query_serve.py`` (which adds the CI
    gates); this command exposes it interactively with the scale presets
    and the run context the flags select.
    """
    params = scale_params(args.scale, seed=args.seed, peers=args.peers)
    with run_context(metrics=MetricsRegistry()):
        report = run_serve_bench(
            n_peers=params["n_peers"],
            items_per_peer=params["items_per_peer"],
            seed=args.seed,
            n_distinct=args.distinct,
            n_queries=args.queries,
            epsilon=args.epsilon,
            max_peers=args.max_peers,
            batch_size=args.batch_size,
            repeats=args.repeats,
            load_fraction=args.load_fraction,
        )
    load = report["load"]
    return _print_report(args, report, lambda report: format_table(
        ["metric", "value"],
        [
            ["hot speedup (batched vs sequential)",
             f"{report['speedup']:.2f}x"],
            ["cold speedup (caches empty)",
             f"{report['cold_speedup']:.2f}x"],
            ["sequential throughput", f"{report['sequential_qps']:.0f} qps"],
            ["batched throughput", f"{report['batched_qps']:.0f} qps"],
            ["open-loop offered", f"{load['offered_qps']:.0f} qps"],
            ["open-loop completed", f"{load['completed_qps']:.0f} qps"],
            ["open-loop p50", f"{load['p50_ms']:.2f} ms"],
            ["open-loop p99", f"{load['p99_ms']:.2f} ms"],
            ["open-loop shed", load["shed"]],
            ["mean coalesced batch", f"{load['mean_batch']:.1f}"],
            ["batches executed", report["engine"]["batches"]],
            ["candidate-cache hits",
             report["engine"]["candidate_cache"]["hits"]],
        ],
        title=f"serve-bench ({args.scale} scale, "
        f"batch={args.batch_size}, eps={args.epsilon})",
    ))


def _cmd_scale_bench(args) -> int:
    """Run the scale benchmark; print the headline numbers.

    Same runner as ``benchmarks/test_scale.py`` (which adds the CI
    gates); the ``--engine sharded --workers N`` flags route the query
    phase through the sharded execution engine, parity-checked against
    the inline oracle before timing.
    """
    with run_context(metrics=MetricsRegistry()):
        report = run_scale_bench(
            n_peers=args.peers,
            spheres_per_peer=args.spheres_per_peer,
            n_queries=args.queries,
            epsilon=args.epsilon,
            engine=args.engine,
            workers=args.workers,
            seed=args.seed,
            baseline_peers=args.baseline_peers,
        )
    return _print_report(args, report, lambda report: format_table(
        ["metric", "value"],
        [
            ["peers", report["n_peers"]],
            ["spheres published", report["spheres_published"]],
            ["build + publish", f"{report['build_s'] + report['publish_s']:.2f} s"],
            ["peers/s (build+publish)", f"{report['peers_per_s']:.0f}"],
            ["spheres/s (publish)", f"{report['spheres_per_s']:.0f}"],
            ["queries/s (index phase)", f"{report['queries_per_s']:.0f}"],
            ["rows scanned / query (of "
             f"{report['spheres_published']})",
             "-" if report["rows_scanned_per_query"] is None
             else f"{report['rows_scanned_per_query']:.0f}"],
            ["mean peers ranked", f"{report['mean_peers_ranked']:.1f}"],
            ["bulk speedup (vs routed)", f"{report['bulk_speedup']:.1f}x"],
            ["parity checked / max delta",
             f"{report['parity']['checked']} / "
             f"{report['parity']['max_abs_delta']:.2e}"],
            ["peak RSS", f"{report['resources']['peak_rss_mb']:.1f} MiB"],
        ],
        title=f"scale-bench ({report['engine']} engine, "
        f"{report['workers']} workers)",
    ))


def _cmd_profile(args) -> int:
    recorder = TraceRecorder()
    with run_context(tracer=recorder):
        out = _run(args, args.experiment)
    if args.json:
        print(_dumps({
            "experiment": args.experiment,
            "scale": args.scale,
            "seed": args.seed,
            "phases": phase_rows(recorder.spans),
            "top": top_spans(recorder.spans, args.top),
            "metrics": out.metrics,
        }))
        return 0
    print(phase_table(
        recorder.spans,
        title=f"profile — {args.experiment} ({args.scale} scale)",
    ))
    print()
    print(top_spans_table(
        recorder.spans, args.top, title=f"top {args.top} spans"
    ))
    print()
    print(metrics_to_table(out.metrics, title="metrics snapshot"))
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point. Returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    # Every network the command builds adopts the controller, overlay
    # backend and fault plan the flags select.
    with run_context(
        adapt=AdaptConfig() if args.adapt else None,
        overlay=resolve_overlay(args.overlay) if args.overlay else None,
        fault_plan=(
            parse_fault_plan(args.fault_plan) if args.fault_plan else None
        ),
    ):
        return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
