"""Observability for the Hyper-M pipeline: metrics, traces, flight, load.

Coordinated pieces (see ``docs/observability.md``):

* :mod:`repro.obs.registry` — the metrics registry (counters, gauges,
  histograms, timers) with deterministic snapshots; clocks are
  injectable so simulated time can drive timers.
* :mod:`repro.obs.trace` — structured span trees for every publish and
  query (``publish → dwt → kmeans[level] → can_insert[level]``; ``query →
  translate → sphere_filter[level] → score → contact_peers``) with JSONL
  export, and the one recorder API: ``span()`` / ``record()`` /
  ``mark_retry()`` over :class:`~repro.obs.trace.TraceRecorder` and its
  one null object, :data:`~repro.obs.trace.NULL_RECORDER`, whose cost on
  the hot path is a single attribute check.
* :mod:`repro.obs.profile` — per-phase time/hops/bytes aggregation and
  flame summaries, powering ``python -m repro profile <experiment>``.
* :mod:`repro.obs.flight` — causal message tracing: a
  :class:`~repro.obs.trace.TraceRecorder` subclass whose spans are
  operations with hop-by-hop edges in a bounded ring buffer,
  reconstructable into per-operation routing trees (drops, retries, and
  duplicates appear as tagged edges). Off by default: the same
  ``NULL_RECORDER`` fills its run-context slot. ``read_jsonl`` reads
  both exports; split a flight file on ``"record"``.
* :mod:`repro.obs.loadmap` — per-zone / per-peer load accounting:
  generation-tagged hotspot/skew snapshots via
  :func:`~repro.obs.loadmap.build_loadmap`, read off the fabric's
  always-on frame ledger (:mod:`repro.net.metrics`; ``LoadLedger`` and
  ``NodeLoad`` are re-exported here).
* :mod:`repro.obs.schema` — validators for the exported trace/flight
  JSONL records and ``repro report`` JSON (also a CLI for CI gating).

Which registry and recorders are live is part of the run context
(:mod:`repro.runtime`): ``run_context(metrics=..., tracer=..., flight=...)``.
"""

from repro.net.metrics import LoadLedger, NodeLoad
from repro.obs.flight import FlightRecorder, HopEdge
from repro.obs.loadmap import build_loadmap
from repro.obs.profile import (
    flame_summary,
    phase_rows,
    phase_table,
    span_tree,
    top_spans,
    top_spans_table,
)
from repro.obs.registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    Timer,
    metrics,
)
from repro.obs.rss import peak_rss_bytes, peak_rss_mb, rss_snapshot
from repro.obs.trace import (
    NULL_RECORDER,
    NullRecorder,
    Span,
    TraceRecorder,
    read_jsonl,
)

__all__ = [
    "Counter",
    "FlightRecorder",
    "Gauge",
    "Histogram",
    "HopEdge",
    "LoadLedger",
    "MetricsRegistry",
    "NULL_RECORDER",
    "NodeLoad",
    "NullRecorder",
    "Span",
    "Timer",
    "TraceRecorder",
    "build_loadmap",
    "flame_summary",
    "metrics",
    "peak_rss_bytes",
    "peak_rss_mb",
    "phase_rows",
    "phase_table",
    "read_jsonl",
    "rss_snapshot",
    "span_tree",
    "top_spans",
    "top_spans_table",
]
