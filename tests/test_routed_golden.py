"""Golden exact counts for one seeded routed session, per overlay backend.

Everything a routed overlay protocol charges is deterministic under a
seed: which hops a message takes, what each costs, which nodes a walk
reaches, which items come back. A change that claims to be "compute
only" (the zone table, a faster kernel, a cache) or "code motion only"
(hoisting the backends' shared data plane) must leave all of it alone —
this test pins the lot for a 16-peer session (publish, 30 range
queries, 4 k-NN) on each of the four backends, so a moved hop fails
tier-1 instead of surfacing as a figure diff. The per-node traffic
digest tells a chain of forwards from a star of probes even where the
hop counts agree. The CAN values were recorded on the commit
before the zone table (``overlay/can/table.py``) existed, the other
four on the commit before the backends shared one ``insert``/``lookup``;
regenerate them with ``python tests/test_routed_golden.py`` only for a
deliberate protocol change, and say so in the commit.
"""

from __future__ import annotations

import hashlib
from collections import Counter

import numpy as np
import pytest

from repro.core.network import HyperMConfig
from repro.evaluation.workloads import build_histogram_network, sample_queries
from repro.overlay.registry import OVERLAYS
from repro.runtime import run_context

EPSILON = 0.12

#: ``by_kind`` maps a message kind to ``(messages, bytes)``.
GOLDEN = {'can': {'by_kind': {'data': (187, 41360),
                     'insert': (1169, 70720),
                     'join': (86, 3960),
                     'range_query': (722, 40056),
                     'replicate': (656, 49688),
                     'retrieve': (187, 104720)},
         'node_traffic': '573645a51cbba110',
         'insert_routing_hops': 1169,
         'insert_replicas': 656,
         'range_routing_hops': 379,
         'range_flood_hops': 132,
         'range_nodes_visited': '6a27423f5528d87a',
         'range_index_hops': 511,
         'range_retrieval_messages': 320,
         'range_items': '61c0dacf775d3c27',
         'knn_index_hops': 211,
         'knn_items': 'ef94625e252f8921'},
 'ring': {'by_kind': {'data': (187, 41360),
                      'insert': (680, 43368),
                      'range_query': (678, 41096),
                      'replicate': (644, 48104),
                      'retrieve': (187, 104720)},
          'node_traffic': 'f9b5b57fd6587d00',
          'insert_routing_hops': 680,
          'insert_replicas': 644,
          'range_routing_hops': 496,
          'range_flood_hops': 0,
          'range_nodes_visited': 'ac75e3116532b3c9',
          'range_index_hops': 496,
          'range_retrieval_messages': 320,
          'range_items': '61c0dacf775d3c27',
          'knn_index_hops': 182,
          'knn_items': 'ef94625e252f8921'},
 'baton': {'by_kind': {'data': (187, 41360),
                       'insert': (661, 41752),
                       'range_query': (708, 43480),
                       'replicate': (681, 52080),
                       'retrieve': (187, 104720)},
           'node_traffic': '9751ff1c69f1b2cb',
           'insert_routing_hops': 661,
           'insert_replicas': 681,
           'range_routing_hops': 503,
           'range_flood_hops': 0,
           'range_nodes_visited': 'dbacf32ee1cf6017',
           'range_index_hops': 503,
           'range_retrieval_messages': 320,
           'range_items': '61c0dacf775d3c27',
           'knn_index_hops': 205,
           'knn_items': 'ef94625e252f8921'},
 'vbi': {'by_kind': {'data': (187, 41360),
                     'insert': (1137, 73352),
                     'range_query': (791, 47272),
                     'replicate': (821, 63368),
                     'retrieve': (187, 104720)},
         'node_traffic': '949b8acdec5cf5b2',
         'insert_routing_hops': 1137,
         'insert_replicas': 821,
         'range_routing_hops': 368,
         'range_flood_hops': 187,
         'range_nodes_visited': 'e2abacb723d2f474',
         'range_index_hops': 555,
         'range_retrieval_messages': 320,
         'range_items': '61c0dacf775d3c27',
         'knn_index_hops': 236,
         'knn_items': 'ef94625e252f8921'},
}


def _digest(values) -> str:
    """Short stable hash of a nested list of ints (order-sensitive)."""
    return hashlib.sha256(repr(values).encode()).hexdigest()[:16]


def run_session(kind: str = "can") -> dict:
    """Publish 16 peers, ask 30 range and 4 k-NN queries, count everything."""
    backend = OVERLAYS[kind]
    totals: Counter = Counter()
    visited: list[list[int]] = []
    insert_many, range_query = backend.insert_many, backend.range_query
    # What the class itself defines, so the wrappers come off cleanly
    # whether a method is the backend's own or an inherited one.
    own = {
        name: vars(backend).get(name)
        for name in ("insert_many", "range_query")
    }

    def counting_insert_many(self, *args, **kwargs):
        # Every insert is a batch here: ``insert`` is a one-row call.
        receipts = insert_many(self, *args, **kwargs)
        for receipt in receipts:
            totals["insert_routing_hops"] += receipt.routing_hops
            totals["insert_replicas"] += receipt.replicas
        return receipts

    def counting_range_query(self, *args, **kwargs):
        receipt = range_query(self, *args, **kwargs)
        totals["range_routing_hops"] += receipt.routing_hops
        totals["range_flood_hops"] += receipt.flood_hops
        visited.append(list(receipt.nodes_visited))
        return receipt

    backend.insert_many = counting_insert_many
    backend.range_query = counting_range_query
    try:
        with run_context(overlay=backend):
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
        # k-NN walks the same overlay paths; snapshot the range-only
        # sums first so the two query kinds stay separately diagnosable.
        range_totals = dict(totals)
        range_visited = _digest(visited)
        knns = [
            network.knn_query(query, 5, origin_peer=int(origin))
            for query, origin in zip(queries[30:], origins[30:])
        ]
    finally:
        for name, original in own.items():
            if original is None:
                delattr(backend, name)
            else:
                setattr(backend, name, original)
    return {
        "by_kind": {
            kind.value: (bucket.messages, bucket.bytes)
            for kind, bucket in sorted(
                network.fabric.metrics.by_kind.items(),
                key=lambda item: item[0].value,
            )
        },
        # Who sent and who received: equal hop totals do not tell a
        # chain of forwards from a star of probes, this does.
        "node_traffic": _digest([
            (node_id, load.msgs_in, load.msgs_out, load.bytes_in,
             load.bytes_out)
            for node_id, load in sorted(network.fabric.load.per_node.items())
        ]),
        **range_totals,
        "range_nodes_visited": range_visited,
        "range_index_hops": sum(r.index_hops for r in ranges),
        "range_retrieval_messages": sum(r.retrieval_messages for r in ranges),
        "range_items": _digest([sorted(map(int, r.item_ids)) for r in ranges]),
        "knn_index_hops": sum(r.index_hops for r in knns),
        "knn_items": _digest([sorted(map(int, r.item_ids)) for r in knns]),
    }


def _check(kind: str) -> None:
    observed = run_session(kind)
    for name, expected in GOLDEN[kind].items():
        assert observed[name] == expected, (kind, name)


def test_routed_session_counts_are_pinned():
    _check("can")


@pytest.mark.parametrize(
    "kind", ["ring", "baton", "vbi"],
    ids=lambda kind: OVERLAYS[kind].__name__,  # what CI's matrix -k selects
)
def test_backend_session_counts_are_pinned(kind):
    _check(kind)


if __name__ == "__main__":
    import pprint

    pprint.pprint(
        {kind: run_session(kind) for kind in OVERLAYS}, sort_dicts=False
    )
