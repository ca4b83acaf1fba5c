"""The experiment table: the paper's evaluation, described once.

:data:`EXPERIMENTS` holds one :class:`Experiment` row per experiment —
§5 dissemination (Figures 8a–c, 9), §6 effectiveness (Figures 10a–c,
the C knob, Figure 11) and the four system studies — and
:func:`run_experiment` is the one way to run a row. The CLI's
sub-parsers, ``repro all`` (text, ``--json`` and the ``--output``
Markdown report via :func:`render_markdown`), ``trace`` and ``profile``
are all generated from the table, so a title, a default or a chart
exists in exactly one place.
"""

from __future__ import annotations

import argparse
import inspect
import warnings
from collections.abc import Callable
from dataclasses import asdict, dataclass

from repro import runtime
from repro.evaluation import (
    adaptation,
    construction,
    dissemination,
    effectiveness,
    overlay_matrix,
    quality,
    resilience,
)
from repro.evaluation.reporting import (
    metrics_to_table,
    rows_to_table,
    series_to_table,
)
from repro.obs.registry import MetricsRegistry
from repro.utils.ascii_plot import line_chart
from repro.utils.tables import format_table

#: Scale presets: (quick, paper-proportioned) overrides per experiment.
SCALES = {
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
    set().union(*(set(preset) for preset in SCALES.values())) | {"rng"}
)

#: Cached ``func -> accepted parameter names`` (signature inspection is
#: surprisingly slow to repeat for every command dispatch).
_SIGNATURE_CACHE: dict = {}


def scale_params(scale: str, *, seed, peers: int | None = None) -> dict:
    """The ``scale`` preset as runner keywords, peer count and seed applied."""
    if scale not in SCALES:
        raise ValueError(
            f"scale must be one of {sorted(SCALES)}, got {scale!r}"
        )
    params = dict(SCALES[scale])
    if peers is not None:
        params["n_peers"] = peers
    params["rng"] = seed
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


def _rows(rows, *, title) -> tuple[list, str]:
    """``(JSON-safe records, ASCII table)`` of a list of dataclass rows."""
    return [asdict(row) for row in rows], rows_to_table(rows, title=title)


def _fig8c(result, *, title):
    rows, base = result
    records, text = _rows(rows, title=title)
    records.append({
        "baseline_can": base.can_hops_per_item,
        "baseline_can2d": base.can2d_hops_per_item,
    })
    return records, text + "\n" + format_table(
        ["baseline", "hops_per_item"],
        [
            ["CAN (full dim)", base.can_hops_per_item],
            ["CAN (2-d)", base.can2d_hops_per_item],
        ],
    )


def _fig10a(result, *, title):
    series = {f"K_p={k}": points for k, points in result.items()}
    records = [
        {"series": label, **asdict(point)}
        for label, points in series.items()
        for point in points
    ]
    return records, series_to_table(
        series, x_name="peers_contacted", title=title
    )


def _adapt(rows, *, title):
    records, text = _rows(rows, title=title)
    clean, adapted = rows
    if adapted.zone_max_over_mean > 0:
        text += (
            f"\nzone-bytes max/mean improved "
            f"{clean.zone_max_over_mean / adapted.zone_max_over_mean:.2f}x "
            f"(identical query results in both arms)"
        )
    return records, text


def _construction(comparison, *, title):
    hyperm, can = comparison.hyperm, comparison.can
    return [asdict(hyperm), asdict(can)], format_table(
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
        title=title,
    )


def at_least(floor: int):
    """A count flag's ``type=``: an int >= ``floor``, else exit 2."""

    def count(text: str) -> int:
        value = int(text)
        if value < floor:
            raise argparse.ArgumentTypeError(f"must be >= {floor}, got {value}")
        return value

    count.__name__ = "int"  # argparse's "invalid int value" message
    return count


@dataclass(frozen=True)
class Option:
    """One experiment-specific knob, declared once for every caller."""

    #: :func:`run_experiment` keyword, and the ``dest`` of its CLI flag.
    dest: str
    #: Runner keyword it feeds.
    param: str
    #: Value used when the option is not given (or given as ``None``).
    default: object = None
    #: ``argparse`` keywords of the flag the experiment's sub-command
    #: adds; ``None`` when every command already takes the flag.
    flag: dict | None = None
    #: Applied to the value on its way to the runner.
    convert: Callable | None = None


@dataclass(frozen=True)
class Chart:
    """An ASCII sketch of a figure's shape, drawn from its records.

    One line per ``series`` entry (label -> record field) over the
    ``x`` field; with ``by`` set, one line per distinct value of that
    record field instead, named after the value.
    """

    title: str
    x: str
    series: dict
    by: str | None = None

    def draw(self, records: list) -> str:
        lines: dict = {}
        for record in records:
            for label, key in self.series.items():
                name = record[self.by] if self.by else label
                lines.setdefault(name, []).append(record[key])
        # Only the first and last label are printed, so the x column of
        # the records serves whether or not ``by`` split them.
        return line_chart(
            lines,
            x_labels=[record[self.x] for record in records],
            title=self.title,
        )


@dataclass(frozen=True)
class Experiment:
    """One table row: how an experiment runs and how it reads.

    ``hook(result, *, title) -> (JSON-safe records, ASCII table)`` is
    replaced only where the runner returns something other than a list of
    dataclass rows, or the text carries more than their table.
    """

    name: str
    runner: Callable
    title: str
    help: str
    options: tuple[Option, ...] = ()
    chart: Chart | None = None
    hook: Callable = _rows


@dataclass
class ExperimentOutput:
    """One experiment run, both machine- and human-readable."""

    #: Experiment id (``fig8b``) and human heading.
    name: str
    title: str
    #: JSON-safe row dicts (what ``--json`` emits).
    records: list
    #: Rendered ASCII tables/charts (what the default mode prints).
    text: str
    #: Observability snapshot (counters/gauges/histograms) collected
    #: while this experiment ran, and only then.
    metrics: dict


#: Every experiment, in the order ``repro all`` runs them.
EXPERIMENTS = {row.name: row for row in (
    Experiment(
        "fig8a", dissemination.run_fig8a, "Figure 8a — replication overhead",
        "Figure 8a: cluster replication overhead",
    ),
    Experiment(
        "fig8b", dissemination.run_fig8b,
        "Figure 8b — hops per item vs volume",
        "Figure 8b: hops per item vs data volume",
        chart=Chart("hops/item vs total items", "total_items", {
            "Hyper-M": "hyperm_hops_per_item",
            "CAN": "can_hops_per_item",
            "CAN-2d": "can2d_hops_per_item",
        }),
    ),
    Experiment(
        "fig8c", dissemination.run_fig8c,
        "Figure 8c — hops per item vs levels",
        "Figure 8c: hops per item vs overlay levels", hook=_fig8c,
    ),
    Experiment(
        "fig9", dissemination.run_fig9, "Figure 9 — load distribution",
        "Figure 9: load distribution under skew",
    ),
    Experiment(
        "fig10a", effectiveness.run_fig10a,
        "Figure 10a — range recall vs peers contacted",
        "Figure 10a: range recall vs peers contacted", hook=_fig10a,
        chart=Chart(
            "mean recall vs peers contacted", "x", {"recall": "mean"},
            by="series",
        ),
    ),
    Experiment(
        "fig10b", effectiveness.run_fig10b,
        "Figure 10b — k-NN precision/recall",
        "Figure 10b: k-NN precision/recall",
    ),
    Experiment(
        "fig10c", effectiveness.run_fig10c, "Figure 10c — staleness",
        "Figure 10c: staleness from late inserts",
        options=(Option("republish", "republish", "none"),),
        chart=Chart(
            "recall vs new-document fraction", "x", {"recall": "mean"}
        ),
    ),
    Experiment(
        "cknob", effectiveness.run_c_knob, "§6.1 — C-knob trade-off",
        "§6.1: the C knob trade-off",
    ),
    Experiment(
        "fig11", quality.run_fig11, "Figure 11 — clustering quality",
        "Figure 11: clustering quality per subspace",
    ),
    Experiment(
        "construction", construction.run_construction_comparison,
        "Construction time (event-driven parallel simulation)",
        "construction time, Hyper-M vs per-item CAN", hook=_construction,
    ),
    Experiment(
        "faults", resilience.run_fault_recall,
        "Resilience — range recall vs message-loss rate",
        "resilience: range recall under message loss and peer crashes",
        options=(
            Option("loss", "loss_rates", (0.0, 0.05, 0.10, 0.20), dict(
                type=float, nargs="+", metavar="P",
                help="message-loss rates to sweep (default: 0 0.05 0.1 0.2)",
            )),
            Option("crash_fraction", "crash_fraction", 0.0, dict(
                type=float, metavar="F",
                help="fraction of peers crashed abruptly "
                "(no overlay cleanup)",
            )),
            Option("max_peers", "max_peers", None, dict(
                type=at_least(0), metavar="N",
                help="contact budget per query "
                "(default: every positive-score peer)",
            )),
            Option("fault_seed", "fault_seed", 0, dict(
                type=int,
                help="seed for the injector's private RNG "
                "(row index is added)",
            )),
        ),
        chart=Chart("recall/confidence vs loss rate", "loss", {
            "recall (reachable)": "recall_mean",
            "recall (raw)": "raw_recall_mean",
            "confidence": "confidence_mean",
        }),
    ),
    Experiment(
        "adapt", adaptation.run_adaptation,
        "Load adaptation — hotspot skew, clean vs adapted",
        "load adaptation: hotspot skew with the control loop on vs off",
        options=(
            Option("queries", "n_queries", 48, dict(
                type=at_least(0), metavar="N",
                help="skewed range queries per arm (default: 48)",
            )),
            Option("epoch_queries", "epoch_queries", 12, dict(
                type=at_least(0), metavar="N",
                help="queries per adaptation epoch (default: 12)",
            )),
        ),
        hook=_adapt,
    ),
    Experiment(
        "matrix", overlay_matrix.run_overlay_matrix,
        "Overlay matrix — publish / delta-repair / query cost per backend",
        "overlay matrix: publish/delta/query cost on every backend",
        # --overlay restricts the sweep to one backend.
        options=(Option(
            "overlay", "overlays",
            convert=lambda name: (name,) if name else None,
        ),),
    ),
)}


def run_experiment(
    name: str, *, scale: str, seed, peers: int | None = None,
    plot: bool = False, **options,
) -> ExperimentOutput:
    """Run one table row at a scale preset; return its full output.

    ``options`` are the row's declared :class:`Option` keywords; anything
    else is passed to the runner as a keyword override (a name the runner
    does not take is dropped with a warning). The run gets a fresh
    :class:`MetricsRegistry` and an ``experiment[name]`` root span, so the
    returned snapshot holds this experiment's counters only. ``plot``
    appends the row's chart, where it has one.
    """
    row = EXPERIMENTS[name]
    params = scale_params(scale, seed=seed, peers=peers)
    for option in row.options:
        value = options.pop(option.dest, None)
        if value is None:
            value = option.default
        params[option.param] = (
            option.convert(value) if option.convert else value
        )
    params.update(options)
    registry = MetricsRegistry()
    with runtime.run_context(metrics=registry):
        with runtime.current.tracer.span(f"experiment[{name}]"):
            result = row.runner(**_filter_kwargs(row.runner, params))
    records, text = row.hook(result, title=row.title)
    if plot and row.chart is not None:
        text += "\n\n" + row.chart.draw(records)
    return ExperimentOutput(
        name, row.title, records, text, registry.snapshot()
    )


def render_markdown(outputs: list[ExperimentOutput]) -> str:
    """Render experiment outputs as an EXPERIMENTS.md-style document."""
    parts = ["# Hyper-M — full experiment report", ""]
    for out in outputs:
        parts += [f"## {out.title}", "", "```", out.text]
        if out.metrics.get("counters") or out.metrics.get("histograms"):
            parts += ["", metrics_to_table(
                out.metrics, title="observability snapshot"
            )]
        parts += ["```", ""]
    return "\n".join(parts)
