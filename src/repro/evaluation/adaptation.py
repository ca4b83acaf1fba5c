"""Load-adaptation effectiveness: hotspot skew with the control loop on.

The experiment behind ``repro adapt``: build the same Markov-corpus
Hyper-M network twice, drive both with the identical skewed query
workload the hotspot benchmark uses, and compare traffic concentration
(zone-bytes Gini and max-over-mean from :func:`build_loadmap`) between
the clean network and one running an
:class:`repro.overlay.adapt.AdaptationController`. Query *results* are
identical in both arms — adaptation moves zones, replicas, and message
paths, never the answer set (Theorem 4.1 set equality is property-tested
in ``tests/test_overlay_adapt.py``) — so the rows only report load.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.network import HyperMConfig
from repro.datasets.skewed import generate_skewed_dataset
from repro.evaluation.workloads import build_markov_network
from repro.obs.loadmap import build_loadmap
from repro.overlay.adapt import AdaptConfig
from repro.runtime import run_context


@dataclass(frozen=True)
class AdaptationRow:
    """One arm of the comparison (``mode`` is ``clean`` or ``adapted``)."""

    mode: str
    zone_gini: float
    zone_max_over_mean: float
    max_zone_bytes: int
    total_bytes: int
    splits: int
    boosts: int
    sheds: int
    items_returned: int


def skewed_query_points(
    data: np.ndarray, hot_clusters: int, n_queries: int, seed: int
) -> np.ndarray:
    """Query points concentrated in the corpus's few largest clusters.

    The exact generator the hotspot benchmark uses (same seed
    derivation), so CLI runs and bench gates measure one workload.
    """
    hot = generate_skewed_dataset(data, hot_clusters, rng=seed + 1)
    rng = np.random.default_rng(seed + 2)
    rows = rng.integers(0, hot.shape[0], size=n_queries)
    return hot[rows]


def run_adaptation(
    n_peers: int = 12,
    items_per_peer: int = 150,
    dimensionality: int = 64,
    n_clusters: int = 6,
    levels_used: int = 3,
    rng: int = 3,
    n_queries: int = 48,
    epsilon: float = 0.5,
    hot_clusters: int = 2,
    epoch_queries: int = 12,
) -> list[AdaptationRow]:
    """Run both arms; returns ``[clean row, adapted row]``.

    The adapted arm runs the control loop with an ``epoch_queries``
    cadence. Construction happens under ``run_context(adapt=None)`` so
    an ambient ``--adapt`` flag cannot leak into the clean arm.
    """
    seed = int(rng)
    adapted_config = AdaptConfig(epoch_queries=epoch_queries)
    rows: list[AdaptationRow] = []
    for mode in ("clean", "adapted"):
        with run_context(adapt=None):
            workload, __ = build_markov_network(
                n_peers=n_peers,
                items_per_peer=items_per_peer,
                dimensionality=dimensionality,
                config=HyperMConfig(
                    levels_used=levels_used, n_clusters=n_clusters
                ),
                rng=seed,
                publish=False,
            )
        network = workload.network
        if mode == "adapted":
            network.enable_adaptation(adapted_config)
        queries = skewed_query_points(
            workload.data, hot_clusters, n_queries, seed
        )
        network.publish_all()
        items = 0
        for query in queries:
            items += len(network.range_query(query, epsilon).items)
        zone_bytes = build_loadmap(network)["skew"]["zone_bytes"]
        decisions = (
            network.adaptation.snapshot()["decisions"]
            if network.adaptation is not None
            else {"split": 0, "boost": 0, "shed": 0}
        )
        rows.append(AdaptationRow(
            mode=mode,
            zone_gini=float(zone_bytes["gini"]),
            zone_max_over_mean=float(zone_bytes["max_over_mean"]),
            max_zone_bytes=int(zone_bytes["max"]),
            total_bytes=int(network.fabric.metrics.total_bytes),
            splits=decisions["split"],
            boosts=decisions["boost"],
            sheds=decisions["shed"],
            items_returned=items,
        ))
    return rows
