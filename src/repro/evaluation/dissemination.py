"""§5 dissemination-speed experiments (Figures 8a, 8b, 8c) and Figure 9.

Each runner returns plain row dataclasses; the benchmark targets render
them with :func:`repro.utils.tables.format_table` so the output mirrors
the series the paper plots.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.baselines import NaiveCANPublisher, TwoDimCANPublisher
from repro.core.network import HyperMConfig, HyperMNetwork
from repro.datasets.markov import generate_markov_vectors
from repro.datasets.partition import partition_among_peers
from repro.datasets.skewed import generate_skewed_dataset
from repro.evaluation.metrics import gini_coefficient, participation_fraction
from repro.evaluation.workloads import build_markov_network
from repro.utils.rng import ensure_rng, spawn_rngs


# --------------------------------------------------------------------------
# Figure 8a — cluster replication overhead
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Fig8aRow:
    """Hops per inserted cluster sphere at one clustering granularity."""

    clusters_per_peer: int
    hops_per_sphere: float
    routing_hops_per_sphere: float
    replica_hops_per_sphere: float
    mean_sphere_radius: float


def run_fig8a(
    *,
    n_peers: int = 20,
    items_per_peer: int = 100,
    dimensionality: int = 64,
    cluster_counts: tuple[int, ...] = (2, 5, 10, 20, 40),
    levels_used: int = 4,
    rng=None,
) -> list[Fig8aRow]:
    """Replication overhead vs clustering granularity.

    Expected shape (paper): finer clustering (more clusters per peer)
    shrinks sphere radii, so replication overhead falls towards the
    no-replication routing cost.
    """
    generator = ensure_rng(rng)
    rows = []
    for count, child in zip(
        cluster_counts, spawn_rngs(generator, len(cluster_counts))
    ):
        config = HyperMConfig(levels_used=levels_used, n_clusters=count)
        workload, report = build_markov_network(
            n_peers=n_peers,
            items_per_peer=items_per_peer,
            dimensionality=dimensionality,
            config=config,
            rng=child,
        )
        radii = [
            sphere.radius
            for peer in workload.network.peers.values()
            for level in peer.summary.levels
            for sphere in peer.summary.spheres[level]
        ]
        rows.append(
            Fig8aRow(
                clusters_per_peer=count,
                hops_per_sphere=report.hops_per_sphere,
                routing_hops_per_sphere=report.routing_hops
                / max(report.spheres_inserted, 1),
                replica_hops_per_sphere=report.replica_hops
                / max(report.spheres_inserted, 1),
                mean_sphere_radius=float(np.mean(radii)) if radii else 0.0,
            )
        )
    return rows


# --------------------------------------------------------------------------
# Figure 8b — hops per item vs amount of data
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Fig8bRow:
    """Hops per item for each method at one data volume."""

    total_items: int
    hyperm_hops_per_item: float
    can_hops_per_item: float
    can2d_hops_per_item: float


def _publish_baseline(
    publisher_cls, parts, dimensionality, rng, *, sample_per_peer: int | None = None
) -> float:
    """Publish a partitioned dataset through a baseline; hops per item.

    Per-item CAN insertion cost does not depend on the number of items
    (only on the overlay size), so ``sample_per_peer`` caps how many items
    each peer actually inserts when estimating the average — the benchmark
    harness uses this to keep baseline sweeps fast without changing the
    measured statistic.
    """
    publisher = publisher_cls(dimensionality, rng=rng)
    for peer_id in range(len(parts)):
        publisher.add_peer(peer_id)
    items = 0
    hops = 0
    for peer_id, (data, ids) in enumerate(parts):
        if sample_per_peer is not None and data.shape[0] > sample_per_peer:
            data = data[:sample_per_peer]
            ids = ids[:sample_per_peer]
        n, h = publisher.publish_items(peer_id, data, ids)
        items += n
        hops += h
    return hops / max(items, 1)


def run_fig8b(
    *,
    n_peers: int = 20,
    items_per_peer_sweep: tuple[int, ...] = (25, 50, 100, 200),
    dimensionality: int = 64,
    n_clusters: int = 10,
    levels_used: int = 4,
    baseline_sample: int | None = 100,
    rng=None,
) -> list[Fig8bRow]:
    """Hops per item as the published volume grows.

    Expected shape (paper Figure 8b): Hyper-M's per-item cost *falls* with
    volume (summaries amortise) while both CAN baselines stay flat — an
    order-of-magnitude gap at realistic volumes.
    """
    generator = ensure_rng(rng)
    rows = []
    for items_per_peer, child in zip(
        items_per_peer_sweep, spawn_rngs(generator, len(items_per_peer_sweep))
    ):
        hm_rng, can_rng, can2_rng = spawn_rngs(child, 3)
        config = HyperMConfig(levels_used=levels_used, n_clusters=n_clusters)
        workload, report = build_markov_network(
            n_peers=n_peers,
            items_per_peer=items_per_peer,
            dimensionality=dimensionality,
            config=config,
            rng=hm_rng,
        )
        can = _publish_baseline(
            NaiveCANPublisher, workload.parts, dimensionality, can_rng,
            sample_per_peer=baseline_sample,
        )
        can2d = _publish_baseline(
            TwoDimCANPublisher, workload.parts, dimensionality, can2_rng,
            sample_per_peer=baseline_sample,
        )
        rows.append(
            Fig8bRow(
                total_items=report.items_published,
                hyperm_hops_per_item=report.hops_per_item,
                can_hops_per_item=can,
                can2d_hops_per_item=can2d,
            )
        )
    return rows


# --------------------------------------------------------------------------
# Figure 8c — hops per item vs number of overlay levels
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Fig8cRow:
    """Hops per item using ``levels_used`` overlays."""

    levels_used: int
    hyperm_hops_per_item: float


@dataclass(frozen=True)
class Fig8cBaselines:
    """Flat baseline lines accompanying the Figure 8c sweep."""

    can_hops_per_item: float
    can2d_hops_per_item: float


def run_fig8c(
    *,
    n_peers: int = 20,
    items_per_peer: int = 100,
    dimensionality: int = 64,
    n_clusters: int = 10,
    levels_sweep: tuple[int, ...] = (1, 2, 3, 4, 5, 6),
    baseline_sample: int | None = 100,
    rng=None,
) -> tuple[list[Fig8cRow], Fig8cBaselines]:
    """Hops per item as overlays (wavelet levels) are added.

    Expected shape: cost grows roughly linearly with levels but stays far
    below per-item CAN insertion even at 4+ levels.
    """
    generator = ensure_rng(rng)
    children = spawn_rngs(generator, len(levels_sweep) + 1)
    rows = []
    parts = None
    for levels_used, child in zip(levels_sweep, children[:-1]):
        config = HyperMConfig(levels_used=levels_used, n_clusters=n_clusters)
        workload, report = build_markov_network(
            n_peers=n_peers,
            items_per_peer=items_per_peer,
            dimensionality=dimensionality,
            config=config,
            rng=child,
        )
        parts = workload.parts
        rows.append(
            Fig8cRow(
                levels_used=levels_used,
                hyperm_hops_per_item=report.hops_per_item,
            )
        )
    can_rng, can2_rng = spawn_rngs(children[-1], 2)
    baselines = Fig8cBaselines(
        can_hops_per_item=_publish_baseline(
            NaiveCANPublisher, parts, dimensionality, can_rng,
            sample_per_peer=baseline_sample,
        ),
        can2d_hops_per_item=_publish_baseline(
            TwoDimCANPublisher, parts, dimensionality, can2_rng,
            sample_per_peer=baseline_sample,
        ),
    )
    return rows, baselines


# --------------------------------------------------------------------------
# Figure 9 — data distribution among nodes
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Fig9Row:
    """Load-distribution statistics for one overlay configuration."""

    configuration: str
    skew_clusters: int
    participation: float
    gini: float
    max_load_fraction: float


def _hyperm_weighted_loads(network: HyperMNetwork) -> list[float]:
    """Item-weighted load per peer, summed across the network's levels."""
    loads = {peer_id: 0.0 for peer_id in network.peers}
    node_to_peer = {
        node_id: peer_id
        for (level, peer_id), node_id in network._overlay_node.items()
    }
    for level, overlay in network.overlays.items():
        for node_id in overlay.node_ids:
            rows = overlay.node(node_id).membership.rows()
            loads[node_to_peer[node_id]] += float(
                overlay.level_store.items_of(rows).sum()
            )
    return list(loads.values())


def run_fig9(
    *,
    n_peers: int = 20,
    n_source_items: int = 2000,
    dimensionality: int = 64,
    n_clusters: int = 10,
    skew_clusters_sweep: tuple[int, ...] = (2, 3, 4, 5),
    levels_sweep: tuple[int, ...] = (1, 2, 3, 4),
    rng=None,
) -> list[Fig9Row]:
    """Distribution of (item-weighted) load under intentionally skewed data.

    Configurations compared, per skew setting:

    * ``original`` — per-item inserts into a CAN of the original
      dimensionality (the paper's worst case together with A-only);
    * ``L=1`` (approximation only) … ``L=4`` — Hyper-M with that many
      wavelet overlays.

    Expected shape: ``original`` and ``L=1`` concentrate load on few nodes
    (low participation, high Gini); adding detail levels spreads it out
    thanks to subspace orthogonality.
    """
    generator = ensure_rng(rng)
    rows = []
    for skew in skew_clusters_sweep:
        skew_rng, part_rng, can_rng, *level_rngs = spawn_rngs(
            generator, 3 + len(levels_sweep)
        )
        source = generate_markov_vectors(
            n_source_items, dimensionality, rng=skew_rng
        )
        skewed = generate_skewed_dataset(source, skew, rng=skew_rng)
        ids = np.arange(skewed.shape[0], dtype=np.int64)
        parts = partition_among_peers(
            skewed, n_peers, clusters_per_peer=n_clusters,
            item_ids=ids, rng=part_rng,
        )

        publisher = NaiveCANPublisher(dimensionality, rng=can_rng)
        for peer_id in range(n_peers):
            publisher.add_peer(peer_id)
        for peer_id, (data, item_ids) in enumerate(parts):
            publisher.publish_items(peer_id, data, item_ids)
        loads = list(publisher.overlay.loads().values())
        rows.append(_fig9_row("original", skew, loads))

        for levels_used, level_rng in zip(levels_sweep, level_rngs):
            config = HyperMConfig(
                levels_used=levels_used, n_clusters=n_clusters
            )
            network = HyperMNetwork(dimensionality, config, rng=level_rng)
            for data, item_ids in parts:
                network.add_peer(data, item_ids)
            network.publish_all()
            loads = _hyperm_weighted_loads(network)
            label = "A only" if levels_used == 1 else f"L={levels_used}"
            rows.append(_fig9_row(label, skew, loads))
    return rows


def _fig9_row(configuration: str, skew: int, loads: list[float]) -> Fig9Row:
    total = sum(loads)
    return Fig9Row(
        configuration=configuration,
        skew_clusters=skew,
        participation=participation_fraction(loads),
        gini=gini_coefficient(loads),
        max_load_fraction=(max(loads) / total) if total else 0.0,
    )
