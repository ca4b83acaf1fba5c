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
    python -m repro fig8b --overlay kademlia
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
import inspect
import json
import sys
import warnings
from dataclasses import asdict, dataclass, field, is_dataclass

from repro.evaluation.adaptation import run_adaptation
from repro.evaluation.dissemination import (
    run_fig8a,
    run_fig8b,
    run_fig8c,
    run_fig9,
)
from repro.evaluation.effectiveness import (
    run_c_knob,
    run_fig10a,
    run_fig10b,
    run_fig10c,
)
from repro.evaluation.quality import run_fig11
from repro.evaluation.reporting import (
    metrics_to_table,
    rows_to_table,
    series_to_table,
)
from repro.evaluation.resilience import run_fault_recall
from repro.engine import EngineConfig, engine_names
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
from repro.utils.ascii_plot import line_chart
from repro.utils.tables import format_table

#: Scale presets: (quick, paper-proportioned) overrides per experiment.
_SCALES = {
    "quick": {
        "n_peers": 15,
        "items_per_peer": 100,
        "n_objects": 80,
        "views_per_object": 10,
        "n_queries": 8,
    },
    "paper": {
        "n_peers": 50,
        "items_per_peer": 1000,
        "n_objects": 500,
        "views_per_object": 12,
        "n_queries": 25,
    },
}

#: Parameters every experiment *may* receive; dropping one of these during
#: signature filtering is expected (not every runner takes every knob).
_COMMON_KEYS = frozenset(
    set().union(*(set(preset) for preset in _SCALES.values())) | {"rng"}
)

#: Cached ``func -> accepted parameter names`` (signature inspection is
#: surprisingly slow to repeat for every command dispatch).
_SIGNATURE_CACHE: dict = {}


def _common(args, **overrides):
    params = dict(_SCALES[args.scale])
    if args.peers is not None:
        params["n_peers"] = args.peers
    params["rng"] = args.seed
    params.update(overrides)
    return params


def _filter_kwargs(func, params):
    """Keep only the kwargs ``func`` accepts; warn on unexpected drops.

    Dropping a *common* scale knob (``n_objects`` for a dissemination
    runner, say) is normal. Dropping anything else means the caller
    misspelled an override — that used to vanish silently; now it warns.
    """
    accepted = _SIGNATURE_CACHE.get(func)
    if accepted is None:
        accepted = _SIGNATURE_CACHE[func] = frozenset(
            inspect.signature(func).parameters
        )
    unexpected = sorted(
        key for key in params
        if key not in accepted and key not in _COMMON_KEYS
    )
    if unexpected:
        warnings.warn(
            f"{func.__name__}() does not accept parameter(s) "
            f"{', '.join(unexpected)}; dropping them",
            stacklevel=2,
        )
    return {k: v for k, v in params.items() if k in accepted}


@dataclass
class ExperimentOutput:
    """One experiment run, both machine- and human-readable.

    Attributes
    ----------
    name:
        Experiment id (``fig8b``).
    records:
        JSON-safe row dicts (what ``--json`` emits).
    text:
        Rendered ASCII tables/charts (what the default mode prints).
    """

    name: str
    records: list = field(default_factory=list)
    text: str = ""


def _records(rows) -> list:
    return [asdict(row) if is_dataclass(row) else dict(row) for row in rows]


# -- experiment builders ------------------------------------------------------


def _build_fig8a(args) -> ExperimentOutput:
    rows = run_fig8a(**_filter_kwargs(run_fig8a, _common(args)))
    return ExperimentOutput(
        "fig8a", _records(rows),
        rows_to_table(rows, title="Figure 8a — replication overhead"),
    )


def _build_fig8b(args) -> ExperimentOutput:
    rows = run_fig8b(**_filter_kwargs(run_fig8b, _common(args)))
    text = rows_to_table(rows, title="Figure 8b — hops per item vs volume")
    if args.plot:
        text += "\n\n" + line_chart(
            {
                "Hyper-M": [r.hyperm_hops_per_item for r in rows],
                "CAN": [r.can_hops_per_item for r in rows],
                "CAN-2d": [r.can2d_hops_per_item for r in rows],
            },
            x_labels=[r.total_items for r in rows],
            title="hops/item vs total items",
        )
    return ExperimentOutput("fig8b", _records(rows), text)


def _build_fig8c(args) -> ExperimentOutput:
    rows, base = run_fig8c(**_filter_kwargs(run_fig8c, _common(args)))
    text = rows_to_table(rows, title="Figure 8c — hops per item vs levels")
    text += "\n" + format_table(
        ["baseline", "hops_per_item"],
        [
            ["CAN (full dim)", base.can_hops_per_item],
            ["CAN (2-d)", base.can2d_hops_per_item],
        ],
    )
    records = _records(rows)
    records.append({
        "baseline_can": base.can_hops_per_item,
        "baseline_can2d": base.can2d_hops_per_item,
    })
    return ExperimentOutput("fig8c", records, text)


def _build_fig9(args) -> ExperimentOutput:
    rows = run_fig9(**_filter_kwargs(run_fig9, _common(args)))
    return ExperimentOutput(
        "fig9", _records(rows),
        rows_to_table(rows, title="Figure 9 — load distribution"),
    )


def _build_fig10a(args) -> ExperimentOutput:
    out = run_fig10a(**_filter_kwargs(run_fig10a, _common(args)))
    series = {f"K_p={k}": v for k, v in out.items()}
    text = series_to_table(
        series,
        x_name="peers_contacted",
        title="Figure 10a — range recall vs peers contacted",
    )
    if args.plot:
        text += "\n\n" + line_chart(
            {
                label: [point.mean for point in points]
                for label, points in series.items()
            },
            x_labels=[point.x for point in next(iter(series.values()))],
            title="mean recall vs peers contacted",
        )
    records = [
        {"series": label, "x": p.x, "mean": p.mean, "min": p.min, "max": p.max}
        for label, points in series.items()
        for p in points
    ]
    return ExperimentOutput("fig10a", records, text)


def _build_fig10b(args) -> ExperimentOutput:
    rows = run_fig10b(**_filter_kwargs(run_fig10b, _common(args)))
    return ExperimentOutput(
        "fig10b", _records(rows),
        rows_to_table(rows, title="Figure 10b — k-NN precision/recall"),
    )


def _build_fig10c(args) -> ExperimentOutput:
    republish = getattr(args, "republish", "none")
    rows = run_fig10c(
        **_filter_kwargs(run_fig10c, _common(args, republish=republish))
    )
    text = rows_to_table(rows, title="Figure 10c — staleness")
    if args.plot:
        text += "\n\n" + line_chart(
            {"recall": [r.mean for r in rows]},
            x_labels=[r.x for r in rows],
            title="recall vs new-document fraction",
        )
    return ExperimentOutput("fig10c", _records(rows), text)


def _build_cknob(args) -> ExperimentOutput:
    rows = run_c_knob(**_filter_kwargs(run_c_knob, _common(args)))
    return ExperimentOutput(
        "cknob", _records(rows),
        rows_to_table(rows, title="§6.1 — C-knob trade-off"),
    )


def _build_fig11(args) -> ExperimentOutput:
    rows = run_fig11(**_filter_kwargs(run_fig11, _common(args)))
    return ExperimentOutput(
        "fig11", _records(rows),
        rows_to_table(rows, title="Figure 11 — clustering quality"),
    )


def _build_faults(args) -> ExperimentOutput:
    loss_rates = tuple(
        getattr(args, "loss", None) or (0.0, 0.05, 0.10, 0.20)
    )
    rows = run_fault_recall(**_filter_kwargs(run_fault_recall, _common(
        args,
        loss_rates=loss_rates,
        crash_fraction=getattr(args, "crash_fraction", 0.0),
        max_peers=getattr(args, "max_peers", None),
        fault_seed=getattr(args, "fault_seed", 0),
    )))
    text = rows_to_table(
        rows, title="Resilience — range recall vs message-loss rate"
    )
    if args.plot:
        text += "\n\n" + line_chart(
            {
                "recall (reachable)": [r.recall_mean for r in rows],
                "recall (raw)": [r.raw_recall_mean for r in rows],
                "confidence": [r.confidence_mean for r in rows],
            },
            x_labels=[r.loss for r in rows],
            title="recall/confidence vs loss rate",
        )
    return ExperimentOutput("faults", _records(rows), text)


def _build_adapt(args) -> ExperimentOutput:
    rows = run_adaptation(**_filter_kwargs(run_adaptation, _common(
        args,
        n_queries=getattr(args, "queries", None) or 48,
        epoch_queries=getattr(args, "epoch_queries", 12),
    )))
    text = rows_to_table(
        rows,
        title="Load adaptation — hotspot skew, clean vs adapted",
    )
    clean, adapted = rows
    if adapted.zone_max_over_mean > 0:
        text += (
            f"\nzone-bytes max/mean improved "
            f"{clean.zone_max_over_mean / adapted.zone_max_over_mean:.2f}x "
            f"(identical query results in both arms)"
        )
    return ExperimentOutput("adapt", _records(rows), text)


def _build_construction(args) -> ExperimentOutput:
    from repro.evaluation.construction import run_construction_comparison

    params = _filter_kwargs(run_construction_comparison, _common(args))
    comparison = run_construction_comparison(**params)
    hyperm, can = comparison.hyperm, comparison.can
    text = format_table(
        ["metric", "Hyper-M", "per-item CAN"],
        [
            ["hops/item", hyperm.hops_per_item, can.hops_per_item],
            ["bytes/item", hyperm.bytes_per_item, can.bytes_per_item],
            [
                "parallel makespan (s)",
                hyperm.parallel_makespan,
                can.parallel_makespan,
            ],
            [
                "shared-channel makespan (s)",
                hyperm.shared_channel_makespan,
                can.shared_channel_makespan,
            ],
        ],
        title="Construction time (event-driven parallel simulation)",
    )

    def _method_record(label, result):
        record = asdict(result) if is_dataclass(result) else dict(vars(result))
        record["method"] = label
        return record

    records = [_method_record("hyperm", hyperm), _method_record("can", can)]
    return ExperimentOutput("construction", records, text)


def _build_matrix(args) -> ExperimentOutput:
    from repro.evaluation.overlay_matrix import run_overlay_matrix

    overlay = getattr(args, "overlay", None)
    rows = run_overlay_matrix(**_filter_kwargs(run_overlay_matrix, _common(
        args, overlays=(overlay,) if overlay else None,
    )))
    text = rows_to_table(
        rows,
        title="Overlay matrix — publish / delta-repair / query cost "
        "per backend",
    )
    return ExperimentOutput("matrix", _records(rows), text)


_COMMANDS = {
    "fig8a": (_build_fig8a, "Figure 8a: cluster replication overhead"),
    "fig8b": (_build_fig8b, "Figure 8b: hops per item vs data volume"),
    "fig8c": (_build_fig8c, "Figure 8c: hops per item vs overlay levels"),
    "fig9": (_build_fig9, "Figure 9: load distribution under skew"),
    "fig10a": (_build_fig10a, "Figure 10a: range recall vs peers contacted"),
    "fig10b": (_build_fig10b, "Figure 10b: k-NN precision/recall"),
    "fig10c": (_build_fig10c, "Figure 10c: staleness from late inserts"),
    "cknob": (_build_cknob, "§6.1: the C knob trade-off"),
    "fig11": (_build_fig11, "Figure 11: clustering quality per subspace"),
    "construction": (
        _build_construction,
        "construction time, Hyper-M vs per-item CAN",
    ),
    "faults": (
        _build_faults,
        "resilience: range recall under message loss and peer crashes",
    ),
    "adapt": (
        _build_adapt,
        "load adaptation: hotspot skew with the control loop on vs off",
    ),
    "matrix": (
        _build_matrix,
        "overlay matrix: publish/delta/query cost on every backend",
    ),
}


def build_parser() -> argparse.ArgumentParser:
    """Build the CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate the Hyper-M paper's experiments.",
    )
    # Run-context flags a command does not take read as unset in main().
    parser.set_defaults(adapt=False, overlay=None, fault_plan=None)
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="list available experiments")

    all_parser = sub.add_parser("all", help="run every experiment")
    _add_common_args(all_parser)
    all_parser.add_argument(
        "--output",
        default=None,
        help="write a Markdown report to this path instead of printing",
    )
    for name, (__, help_text) in _COMMANDS.items():
        cmd = sub.add_parser(name, help=help_text)
        _add_common_args(cmd)
        if name == "faults":
            _add_fault_args(cmd)
        if name == "adapt":
            _add_adapt_args(cmd)

    trace_parser = sub.add_parser(
        "trace",
        help="run one experiment with span tracing; write a JSONL trace",
    )
    trace_parser.add_argument(
        "experiment", choices=sorted(_COMMANDS), help="experiment to trace"
    )
    _add_common_args(trace_parser)
    trace_parser.add_argument(
        "--out",
        default=None,
        help="trace output path (default: trace-<experiment>.jsonl)",
    )
    trace_parser.add_argument(
        "--depth", type=int, default=3,
        help="max depth of the printed flame summary",
    )

    profile_parser = sub.add_parser(
        "profile",
        help="run one experiment traced; print per-phase time/hops/bytes",
    )
    profile_parser.add_argument(
        "experiment", choices=sorted(_COMMANDS), help="experiment to profile"
    )
    _add_common_args(profile_parser)
    profile_parser.add_argument(
        "--top", type=int, default=10,
        help="how many individually slowest spans to list",
    )

    stats_parser = sub.add_parser(
        "stats",
        help="build a network at the chosen scale; print its health stats",
    )
    _add_common_args(stats_parser)
    stats_parser.add_argument(
        "--churn", type=int, default=0, metavar="N",
        help="make N peers leave after publishing (exercises the "
        "level stores' tombstone/compaction accounting)",
    )

    report_parser = sub.add_parser(
        "report",
        help="run a fully instrumented fig8-style workload; fuse metrics, "
        "traces, loadmap, and benches into one run report",
    )
    _add_common_args(report_parser)
    report_parser.add_argument(
        "--queries", type=int, default=None, metavar="N",
        help="range queries to issue (default: the scale preset's count)",
    )
    report_parser.add_argument(
        "--epsilon", type=float, default=0.5,
        help="range-query radius in the original space",
    )
    report_parser.add_argument(
        "--top-k", type=int, default=10,
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

    serve_parser = sub.add_parser(
        "serve-bench",
        help="drive the batched serving engine open-loop; report the "
        "batched-vs-sequential speedup, QPS, and p50/p99 latency",
    )
    _add_common_args(serve_parser)
    serve_parser.add_argument(
        "--queries", type=int, default=96, metavar="N",
        help="length of the Zipf-skewed hot query stream (default: 96)",
    )
    serve_parser.add_argument(
        "--distinct", type=int, default=24, metavar="N",
        help="distinct queries behind the hot stream (default: 24)",
    )
    serve_parser.add_argument(
        "--epsilon", type=float, default=0.25,
        help="range-query radius in the original space (default: 0.25)",
    )
    serve_parser.add_argument(
        "--batch-size", type=int, default=16, metavar="B",
        help="queries coalesced per stacked intersection pass "
        "(default: 16)",
    )
    serve_parser.add_argument(
        "--max-peers", type=int, default=3, metavar="N",
        help="retrieval contact budget per query (default: 3)",
    )
    serve_parser.add_argument(
        "--repeats", type=int, default=3, metavar="N",
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

    scale_parser = sub.add_parser(
        "scale-bench",
        help="bulk-build per-level CAN grids at 10^5-peer scale and "
        "report publish/query throughput plus peak RSS",
    )
    _add_run_args(scale_parser)
    scale_parser.set_defaults(peers=2048)  # no --scale preset to size it
    scale_parser.add_argument(
        "--spheres-per-peer", type=int, default=2, metavar="N",
        help="cluster spheres published per peer per level (default: 2)",
    )
    scale_parser.add_argument(
        "--queries", type=int, default=32, metavar="N",
        help="translated range queries to time (default: 32)",
    )
    scale_parser.add_argument(
        "--epsilon", type=float, default=0.25,
        help="range-query radius in the original space (default: 0.25)",
    )
    scale_parser.add_argument(
        "--baseline-peers", type=int, default=192, metavar="N",
        help="size of the routed-vs-bulk construction race whose "
        "wall-clock ratio is the gated bulk_speedup (default: 192)",
    )
    scale_parser.add_argument(
        "--out", default=None, metavar="PATH",
        help="also write the report JSON to this path",
    )
    return parser


def _add_adapt_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--queries", type=int, default=None, metavar="N",
        help="skewed range queries per arm (default: 48)",
    )
    parser.add_argument(
        "--epoch-queries", type=int, default=12, metavar="N",
        help="queries per adaptation epoch (default: 12)",
    )


def _add_fault_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--loss", type=float, nargs="+", default=None, metavar="P",
        help="message-loss rates to sweep (default: 0 0.05 0.1 0.2)",
    )
    parser.add_argument(
        "--crash-fraction", type=float, default=0.0, metavar="F",
        help="fraction of peers crashed abruptly (no overlay cleanup)",
    )
    parser.add_argument(
        "--max-peers", type=int, default=None, metavar="N",
        help="contact budget per query (default: every positive-score peer)",
    )
    parser.add_argument(
        "--fault-seed", type=int, default=0,
        help="seed for the injector's private RNG (row index is added)",
    )


def _add_common_args(parser: argparse.ArgumentParser) -> None:
    _add_run_args(parser)
    parser.add_argument(
        "--scale",
        choices=sorted(_SCALES),
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
        "'loss=0.1,delay=0.005,dup=0.01,seed=3' applied to every network "
        "the command builds (see docs/faults.md)",
    )
    parser.add_argument(
        "--republish",
        choices=("none", "delta", "full"),
        default="none",
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
        "--peers", type=int, default=None, help="override the peer count"
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="master random seed"
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit machine-readable JSON (series + metrics snapshot)",
    )
    parser.add_argument(
        "--engine",
        choices=engine_names(),
        default=None,
        help="execution engine for every network the command builds "
        "(default: serial); 'sharded' fans per-level index work out to "
        "worker processes over shared memory (see docs/scaling.md)",
    )
    parser.add_argument(
        "--workers", type=int, default=2, metavar="N",
        help="worker processes for the sharded engine (default: 2)",
    )


def _json_default(value):
    """JSON fallback for numpy scalars and other ``.item()``-bearers."""
    item = getattr(value, "item", None)
    if callable(item):
        return item()
    raise TypeError(
        f"object of type {type(value).__name__} is not JSON serializable"
    )


def _emit(args, out: ExperimentOutput, metrics_snapshot: dict) -> None:
    if getattr(args, "json", False):
        payload = {
            "experiment": out.name,
            "scale": args.scale,
            "seed": args.seed,
            "records": out.records,
            "metrics": metrics_snapshot,
        }
        print(json.dumps(payload, indent=2, default=_json_default))
    else:
        print(out.text)


def _cmd_trace(args) -> int:
    builder, __ = _COMMANDS[args.experiment]
    recorder = TraceRecorder()
    with run_context(metrics=MetricsRegistry(), tracer=recorder):
        builder(args)
    path = args.out or f"trace-{args.experiment}.jsonl"
    count = recorder.write_jsonl(path)
    print(f"trace: wrote {count} spans to {path}")
    print()
    print(flame_summary(recorder.spans, max_depth=max(args.depth, 1)))
    return 0


def _cmd_stats(args) -> int:
    """Build a workload network, optionally churn it, print health stats.

    Surfaces :meth:`HyperMNetwork.stats` — including the per-level
    columnar store health (live rows, tombstones, generation,
    compactions, mask passes and the rows each scanned) — without
    writing a script.
    """
    from repro.evaluation.workloads import build_markov_network

    params = _common(args)
    with run_context(metrics=MetricsRegistry()):
        workload, __ = build_markov_network(
            n_peers=params["n_peers"],
            items_per_peer=params["items_per_peer"],
            rng=params["rng"],
        )
        network = workload.network
        departures = min(max(args.churn, 0), network.n_peers - 1)
        for peer_id in list(network.peers)[:departures]:
            # Clean departures (summaries withdrawn) so the store health
            # table actually shows tombstone/compaction activity.
            network.depart(peer_id, withdraw_summaries=True)
        stats = network.stats()
    if getattr(args, "json", False):
        payload = {
            "scale": args.scale,
            "seed": args.seed,
            "churned": departures,
            "stats": stats,
        }
        print(json.dumps(payload, indent=2, default=_json_default))
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
    from repro.evaluation.report import render_markdown, run_report

    params = _common(args)
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
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(report, handle, indent=2, default=_json_default)
        print(f"report: wrote {args.out}")
    if getattr(args, "json", False):
        print(json.dumps(report, indent=2, default=_json_default))
    else:
        print(render_markdown(report))
    return 0


def _cmd_serve_bench(args) -> int:
    """Run the serving benchmark; print the headline numbers.

    Same runner as ``benchmarks/test_query_serve.py`` (which adds the CI
    gates); this command exposes it interactively with the scale presets
    and the run context the flags select.
    """
    from repro.evaluation.serving import run_serve_bench

    params = _common(args)
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
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(report, handle, indent=2, default=_json_default)
            handle.write("\n")
        print(f"serve-bench: wrote {args.out}")
    if getattr(args, "json", False):
        print(json.dumps(report, indent=2, default=_json_default))
        return 0
    load = report["load"]
    print(format_table(
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
    return 0


def _cmd_scale_bench(args) -> int:
    """Run the scale benchmark; print the headline numbers.

    Same runner as ``benchmarks/test_scale.py`` (which adds the CI
    gates); the ``--engine sharded --workers N`` flags route the query
    phase through the sharded execution engine, parity-checked against
    the inline oracle before timing.
    """
    from repro.evaluation.scale import run_scale_bench

    with run_context(metrics=MetricsRegistry()):
        report = run_scale_bench(
            n_peers=args.peers,
            spheres_per_peer=args.spheres_per_peer,
            n_queries=args.queries,
            epsilon=args.epsilon,
            engine=args.engine or "serial",
            workers=max(args.workers, 1),
            seed=args.seed,
            baseline_peers=args.baseline_peers,
        )
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(report, handle, indent=2, default=_json_default)
            handle.write("\n")
        print(f"scale-bench: wrote {args.out}")
    if getattr(args, "json", False):
        print(json.dumps(report, indent=2, default=_json_default))
        return 0
    print(format_table(
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
    return 0


def _cmd_profile(args) -> int:
    builder, __ = _COMMANDS[args.experiment]
    recorder = TraceRecorder()
    registry = MetricsRegistry()
    with run_context(metrics=registry, tracer=recorder):
        builder(args)
    if getattr(args, "json", False):
        payload = {
            "experiment": args.experiment,
            "scale": args.scale,
            "seed": args.seed,
            "phases": phase_rows(recorder.spans),
            "top": top_spans(recorder.spans, args.top),
            "metrics": registry.snapshot(),
        }
        print(json.dumps(payload, indent=2, default=_json_default))
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
    print(metrics_to_table(registry.snapshot(), title="metrics snapshot"))
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point. Returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "list":
        for name, (__, help_text) in _COMMANDS.items():
            print(f"{name:14s} {help_text}")
        print(f"{'trace':14s} record one experiment's span tree as JSONL")
        print(f"{'profile':14s} per-phase time/hops/bytes for one experiment")
        print(f"{'stats':14s} network + level-store health for a built network")
        print(f"{'report':14s} fused run report: metrics + traces + loadmap")
        print(f"{'serve-bench':14s} batched serving engine: speedup, QPS, "
              "p50/p99 latency")
        print(f"{'scale-bench':14s} 10^5-peer bulk publish + engine-plane "
              "query throughput")
        return 0
    # Every network the command builds adopts the controller, overlay
    # backend, fault plan and execution engine the flags select.
    with run_context(
        adapt=AdaptConfig() if args.adapt else None,
        overlay=resolve_overlay(args.overlay) if args.overlay else None,
        fault_plan=(
            parse_fault_plan(args.fault_plan) if args.fault_plan else None
        ),
        engine=EngineConfig(
            engine=args.engine, workers=max(args.workers, 1)
        ) if args.engine else None,
    ):
        return _dispatch(args)


def _dispatch(args) -> int:
    if args.command == "trace":
        return _cmd_trace(args)
    if args.command == "profile":
        return _cmd_profile(args)
    if args.command == "stats":
        return _cmd_stats(args)
    if args.command == "report":
        return _cmd_report(args)
    if args.command == "serve-bench":
        return _cmd_serve_bench(args)
    if args.command == "scale-bench":
        return _cmd_scale_bench(args)
    if args.command == "all":
        from repro.evaluation.summary import (
            render_markdown,
            run_full_report,
        )

        if getattr(args, "output", None):
            reports = run_full_report(scale=args.scale, rng=args.seed)
            text = render_markdown(reports)
            with open(args.output, "w") as handle:
                handle.write(text)
            print(f"wrote {len(reports)} experiment reports to {args.output}")
            return 0
        if args.json:
            reports = run_full_report(scale=args.scale, rng=args.seed)
            print(json.dumps(
                [asdict(report) for report in reports],
                indent=2, default=_json_default,
            ))
            return 0
        for name, (builder, __) in _COMMANDS.items():
            print(f"\n### {name}")
            with run_context(metrics=MetricsRegistry()):
                print(builder(args).text)
        return 0
    builder, __ = _COMMANDS[args.command]
    registry = MetricsRegistry()
    with run_context(metrics=registry):
        out = builder(args)
    _emit(args, out, registry.snapshot())
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
