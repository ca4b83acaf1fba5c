"""Ablation — overlay independence: CAN vs BATON vs VBI-tree.

The paper claims Hyper-M works over any structured overlay with
multi-dimensional indexing and names BATON, VBI-tree and CAN; this bench
runs the same workload over those three substrates and compares
dissemination cost and range recall.
"""

import numpy as np

from repro.core.baselines import CentralizedIndex
from repro.core.network import HyperMConfig, HyperMNetwork
from repro.datasets.histograms import generate_histograms
from repro.datasets.partition import partition_among_peers
from repro.evaluation.metrics import precision_recall
from repro.evaluation.workloads import sample_queries
from repro.overlay.baton import BatonNetwork
from repro.overlay.can import CANNetwork
from repro.overlay.vbi import VBITree
from repro.utils.rng import spawn_rngs
from repro.utils.tables import format_table


def _run_overlay(factory, parts, dims, rng):
    config = HyperMConfig(levels_used=4, n_clusters=8)
    network = HyperMNetwork(dims, config, rng=rng, overlay_factory=factory)
    for data, ids in parts:
        network.add_peer(data, ids)
    report = network.publish_all()
    return network, report


def _run_ablation():
    # Seven streams, one unused: each row keeps the stream its recorded
    # results in benchmarks/results/ablation_overlay.txt came from.
    (data_rng, part_rng, can_rng, __, baton_rng, vbi_rng,
     query_rng) = spawn_rngs(8_012, 7)
    dataset = generate_histograms(120, 12, 64, rng=data_rng)
    ids = np.arange(dataset.n_items)
    parts = partition_among_peers(
        dataset.data, 20, clusters_per_peer=8, item_ids=ids, rng=part_rng
    )
    truth_index = CentralizedIndex(dataset.data, ids)
    queries = sample_queries(dataset.data, 10, rng=query_rng)

    rows = []
    for name, factory, rng in (
        ("CAN", CANNetwork, can_rng),
        ("BATON", BatonNetwork, baton_rng),
        ("VBI-tree", VBITree, vbi_rng),
    ):
        network, report = _run_overlay(factory, parts, 64, rng)
        recalls = []
        for query in queries:
            truth = truth_index.range_search(query, 0.12)
            if not truth:
                continue
            result = network.range_query(query, 0.12, max_peers=8)
            recalls.append(precision_recall(result.item_ids, truth).recall)
        rows.append(
            [
                name,
                report.hops_per_item,
                report.hops_per_sphere,
                float(np.mean(recalls)),
            ]
        )
    return rows


def test_ablation_overlay(benchmark, record_table):
    rows = benchmark.pedantic(_run_ablation, rounds=1, iterations=1)
    record_table(
        "ablation_overlay",
        format_table(
            ["overlay", "hops/item", "hops/sphere", "recall@8 peers"],
            rows,
            title="Ablation — Hyper-M over CAN / BATON / VBI-tree "
            "(all the paper's named overlays)",
        ),
    )
    for row in rows:
        assert row[3] > 0.5  # every substrate retrieves usefully
