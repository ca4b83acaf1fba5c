"""Experiment harness: one runner per paper figure/table.

Modules
-------
* :mod:`repro.evaluation.metrics` — precision/recall/F1 and distribution
  statistics (Gini, participation).
* :mod:`repro.evaluation.workloads` — standard network/dataset/query
  builders shared by experiments and benchmarks.
* :mod:`repro.evaluation.dissemination` — §5 speed experiments
  (Figures 8a, 8b, 8c) and the Figure 9 distribution study.
* :mod:`repro.evaluation.effectiveness` — §6 retrieval experiments
  (Figures 10a, 10b, 10c and the C-knob table).
* :mod:`repro.evaluation.quality` — the Figure 11 clustering-quality study.
* :mod:`repro.evaluation.resilience` — recall under message loss and
  abrupt peer crashes (the :mod:`repro.faults` evaluation scenario).
* :mod:`repro.evaluation.serving` — batched serving-tier throughput and
  open-loop latency (the ``repro serve-bench`` runner).
* :mod:`repro.evaluation.reporting` — paper-style series/table rendering.
* :mod:`repro.evaluation.experiments` — the experiment table: one row per
  experiment above, ``run_experiment`` to run a row, and the Markdown
  report; the CLI's experiment commands are generated from it.
"""

from repro.evaluation.metrics import (
    PrecisionRecall,
    f1_score,
    gini_coefficient,
    precision_recall,
)
from repro.evaluation.resilience import FaultRecallRow, run_fault_recall
from repro.evaluation.serving import run_serve_bench
from repro.evaluation.workloads import (
    HistogramWorkload,
    MarkovWorkload,
    build_histogram_network,
    build_markov_network,
    sample_queries,
)

__all__ = [
    "PrecisionRecall",
    "precision_recall",
    "f1_score",
    "gini_coefficient",
    "HistogramWorkload",
    "MarkovWorkload",
    "build_histogram_network",
    "build_markov_network",
    "sample_queries",
    "FaultRecallRow",
    "run_fault_recall",
    "run_serve_bench",
]
