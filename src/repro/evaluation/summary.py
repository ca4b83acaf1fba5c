"""One-call full evaluation: every experiment, structured + renderable.

``run_full_report`` executes every figure's runner and returns structured
:class:`ExperimentReport` objects; ``render_markdown`` turns them into an
EXPERIMENTS.md-style document. Powers ``python -m repro all --output``.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, is_dataclass

from repro import runtime
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
from repro.obs.registry import MetricsRegistry
from repro.utils.rng import ensure_rng, spawn_rngs


@dataclass
class ExperimentReport:
    """One experiment's structured outcome.

    Attributes
    ----------
    name / title:
        Machine id (``fig8a``) and human heading.
    records:
        Plain-dict rows (JSON-safe) for programmatic consumption.
    table:
        The rendered ASCII table, as the benchmarks print it.
    metrics:
        Observability snapshot (counters/gauges/histograms) collected
        while this experiment ran — publish/query totals that make report
        diffs quantitative, not just table-shaped.
    """

    name: str
    title: str
    records: list = field(default_factory=list)
    table: str = ""
    metrics: dict = field(default_factory=dict)


def _scoped(name: str, thunk):
    """Run ``thunk`` under a fresh metrics registry and an experiment span.

    Returns ``(result, metrics snapshot)`` so each experiment's report
    carries only its own publish/query counters.
    """
    registry = MetricsRegistry()
    with runtime.run_context(metrics=registry):
        with runtime.current.tracer.span(f"experiment[{name}]"):
            result = thunk()
    return result, registry.snapshot()


def _rows_report(name, title, rows) -> ExperimentReport:
    records = [
        asdict(row) if is_dataclass(row) else dict(row) for row in rows
    ]
    return ExperimentReport(
        name=name, title=title, records=records,
        table=rows_to_table(rows, title=title),
    )


#: Per-experiment parameter presets (scaled for a full-report run).
_QUICK = dict(n_peers=12, items_per_peer=80, n_objects=60,
              views_per_object=8, n_queries=6)
_PAPER = dict(n_peers=50, items_per_peer=1000, n_objects=500,
              views_per_object=12, n_queries=25)


def run_full_report(*, scale: str = "quick", rng=0) -> list[ExperimentReport]:
    """Run every experiment; returns one report per figure/table.

    ``scale`` is ``"quick"`` (about a minute) or ``"paper"``
    (paper-proportioned sizes; substantially longer).
    """
    if scale not in ("quick", "paper"):
        raise ValueError(f"scale must be 'quick' or 'paper', got {scale!r}")
    params = dict(_QUICK if scale == "quick" else _PAPER)
    seeds = spawn_rngs(ensure_rng(rng), 9)

    def pick(func, extra=None):
        import inspect

        accepted = set(inspect.signature(func).parameters)
        merged = dict(params)
        if extra:
            merged.update(extra)
        return {k: v for k, v in merged.items() if k in accepted}

    reports = []

    def add(report: ExperimentReport, metrics: dict) -> None:
        report.metrics = metrics
        reports.append(report)

    rows, captured = _scoped(
        "fig8a", lambda: run_fig8a(**pick(run_fig8a), rng=seeds[0])
    )
    add(_rows_report(
        "fig8a", "Figure 8a — replication overhead", rows,
    ), captured)
    rows, captured = _scoped(
        "fig8b", lambda: run_fig8b(**pick(run_fig8b), rng=seeds[1])
    )
    add(_rows_report(
        "fig8b", "Figure 8b — hops per item vs volume", rows,
    ), captured)
    (fig8c_rows, fig8c_base), captured = _scoped(
        "fig8c", lambda: run_fig8c(**pick(run_fig8c), rng=seeds[2])
    )
    fig8c = _rows_report(
        "fig8c", "Figure 8c — hops per item vs levels", fig8c_rows
    )
    fig8c.records.append({
        "baseline_can": fig8c_base.can_hops_per_item,
        "baseline_can2d": fig8c_base.can2d_hops_per_item,
    })
    add(fig8c, captured)
    rows, captured = _scoped(
        "fig9", lambda: run_fig9(**pick(run_fig9), rng=seeds[3])
    )
    add(_rows_report(
        "fig9", "Figure 9 — load distribution under skew", rows,
    ), captured)

    fig10a, captured = _scoped(
        "fig10a", lambda: run_fig10a(**pick(run_fig10a), rng=seeds[4])
    )
    series = {f"K_p={k}": v for k, v in fig10a.items()}
    add(ExperimentReport(
        name="fig10a",
        title="Figure 10a — range recall vs peers contacted",
        records=[
            {"series": label, "x": p.x, "mean": p.mean,
             "min": p.min, "max": p.max}
            for label, points in series.items()
            for p in points
        ],
        table=series_to_table(
            series, x_name="peers",
            title="Figure 10a — range recall vs peers contacted",
        ),
    ), captured)
    rows, captured = _scoped(
        "fig10b", lambda: run_fig10b(**pick(run_fig10b), rng=seeds[5])
    )
    add(_rows_report(
        "fig10b", "Figure 10b — k-NN precision/recall", rows,
    ), captured)
    rows, captured = _scoped(
        "cknob", lambda: run_c_knob(**pick(run_c_knob), rng=seeds[6])
    )
    add(_rows_report("cknob", "§6.1 — the C knob", rows), captured)
    rows, captured = _scoped(
        "fig10c", lambda: run_fig10c(**pick(run_fig10c), rng=seeds[7])
    )
    add(_rows_report("fig10c", "Figure 10c — staleness", rows), captured)
    rows, captured = _scoped(
        "fig11", lambda: run_fig11(**pick(run_fig11), rng=seeds[8])
    )
    add(_rows_report(
        "fig11", "Figure 11 — clustering quality per space", rows,
    ), captured)
    return reports


def render_markdown(reports: list[ExperimentReport]) -> str:
    """Render a full report as a Markdown document, with shape sketches."""
    parts = ["# Hyper-M — full experiment report", ""]
    for report in reports:
        parts.append(f"## {report.title}")
        parts.append("")
        parts.append("```")
        parts.append(report.table)
        chart = _chart_for(report)
        if chart:
            parts.append("")
            parts.append(chart)
        if report.metrics.get("counters") or report.metrics.get("histograms"):
            parts.append("")
            parts.append(metrics_to_table(
                report.metrics, title="observability snapshot"
            ))
        parts.append("```")
        parts.append("")
    return "\n".join(parts)


def _chart_for(report: ExperimentReport) -> str | None:
    """An ASCII sketch of the figure's shape, where one applies."""
    from repro.utils.ascii_plot import line_chart

    try:
        if report.name == "fig8b":
            return line_chart(
                {
                    "Hyper-M": [r["hyperm_hops_per_item"] for r in report.records],
                    "CAN": [r["can_hops_per_item"] for r in report.records],
                },
                x_labels=[r["total_items"] for r in report.records],
                title="hops/item vs total items",
                height=8,
            )
        if report.name == "fig10a":
            series: dict[str, list] = {}
            xs: list = []
            for record in report.records:
                series.setdefault(record["series"], []).append(record["mean"])
            xs = sorted({record["x"] for record in report.records})
            return line_chart(
                series, x_labels=xs,
                title="mean recall vs peers contacted", height=8,
            )
        if report.name == "fig10c":
            return line_chart(
                {"recall": [r["mean"] for r in report.records]},
                x_labels=[r["x"] for r in report.records],
                title="recall vs new-document fraction",
                height=8,
            )
    except (KeyError, ValueError):
        return None
    return None
