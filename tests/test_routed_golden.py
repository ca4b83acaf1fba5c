"""Golden exact counts for one seeded routed session.

Everything the routed CAN protocol charges is deterministic under a
seed: which hops a message takes, what each costs, which nodes a flood
reaches, which items come back. A change that claims to be "compute
only" (the zone table, a faster kernel, a cache) must leave all of it
alone — this test pins the lot for a 16-peer session (publish, 30 range
queries, 4 k-NN) so a moved hop fails tier-1 instead of surfacing as a
figure diff. The values were recorded on the commit before the zone
table (``overlay/can/table.py``) existed; regenerate them with
``python tests/test_routed_golden.py`` only for a deliberate protocol
change, and say so in the commit.
"""

from __future__ import annotations

import hashlib
from collections import Counter

import numpy as np

from repro.core.network import HyperMConfig
from repro.evaluation.workloads import build_histogram_network, sample_queries
from repro.overlay.can.network import CANNetwork

EPSILON = 0.12

GOLDEN = {
    "by_kind": {  # kind -> (messages, bytes)
        "data": (187, 41360),
        "insert": (1169, 70720),
        "join": (86, 3960),
        "range_query": (722, 40056),
        "replicate": (656, 49688),
        "retrieve": (187, 104720),
    },
    "insert_routing_hops": 1169,
    "insert_replicas": 656,
    "range_routing_hops": 379,
    "range_flood_hops": 132,
    "range_nodes_visited": "6a27423f5528d87a",
    "range_index_hops": 511,
    "range_retrieval_messages": 320,
    "range_items": "61c0dacf775d3c27",
    "knn_index_hops": 211,
    "knn_items": "ef94625e252f8921",
}


def _digest(values) -> str:
    """Short stable hash of a nested list of ints (order-sensitive)."""
    return hashlib.sha256(repr(values).encode()).hexdigest()[:16]


def run_session() -> dict:
    """Publish 16 peers, ask 30 range and 4 k-NN queries, count everything."""
    totals: Counter = Counter()
    visited: list[list[int]] = []
    insert, range_query = CANNetwork.insert, CANNetwork.range_query

    def counting_insert(self, *args, **kwargs):
        receipt = insert(self, *args, **kwargs)
        totals["insert_routing_hops"] += receipt.routing_hops
        totals["insert_replicas"] += receipt.replicas
        return receipt

    def counting_range_query(self, *args, **kwargs):
        receipt = range_query(self, *args, **kwargs)
        totals["range_routing_hops"] += receipt.routing_hops
        totals["range_flood_hops"] += receipt.flood_hops
        visited.append(list(receipt.nodes_visited))
        return receipt

    CANNetwork.insert = counting_insert
    CANNetwork.range_query = counting_range_query
    try:
        workload = build_histogram_network(
            n_peers=16,
            n_objects=64,
            views_per_object=8,
            n_bins=64,
            config=HyperMConfig(levels_used=4, n_clusters=6),
            rng=2007,
        )
        network = workload.network
        queries = sample_queries(workload.data, 34, rng=11, jitter=0.01)
        origins = np.random.default_rng(12).integers(0, network.n_peers, 34)
        ranges = [
            network.range_query(
                query, EPSILON, max_peers=6, origin_peer=int(origin)
            )
            for query, origin in zip(queries[:30], origins)
        ]
        # k-NN floods through the same CAN walk; snapshot the range-only
        # sums first so the two query kinds stay separately diagnosable.
        range_totals = dict(totals)
        range_visited = _digest(visited)
        knns = [
            network.knn_query(query, 5, origin_peer=int(origin))
            for query, origin in zip(queries[30:], origins[30:])
        ]
    finally:
        CANNetwork.insert = insert
        CANNetwork.range_query = range_query
    return {
        "by_kind": {
            kind.value: (bucket.messages, bucket.bytes)
            for kind, bucket in sorted(
                network.fabric.metrics.by_kind.items(),
                key=lambda item: item[0].value,
            )
        },
        **range_totals,
        "range_nodes_visited": range_visited,
        "range_index_hops": sum(r.index_hops for r in ranges),
        "range_retrieval_messages": sum(r.retrieval_messages for r in ranges),
        "range_items": _digest([sorted(map(int, r.item_ids)) for r in ranges]),
        "knn_index_hops": sum(r.index_hops for r in knns),
        "knn_items": _digest([sorted(map(int, r.item_ids)) for r in knns]),
    }


def test_routed_session_counts_are_pinned():
    observed = run_session()
    for name, expected in GOLDEN.items():
        assert observed[name] == expected, name


if __name__ == "__main__":
    import pprint

    pprint.pprint(run_session(), sort_dicts=False)
