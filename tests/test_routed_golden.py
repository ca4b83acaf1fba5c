"""Golden exact counts for one seeded routed session, per overlay backend.

Everything a routed overlay protocol charges is deterministic under a
seed: which hops a message takes, what each costs, which nodes a walk
reaches, which items come back. A change that claims to be "compute
only" (the zone table, a faster kernel, a cache) or "code motion only"
(hoisting the backends' shared data plane) must leave all of it alone —
this test pins the lot for a 16-peer session (publish, 30 range
queries, 4 k-NN) on each of the three backends, so a moved hop fails
tier-1 instead of surfacing as a figure diff. The per-node traffic
digest tells a chain of forwards from a star of probes even where the
hop counts agree. The CAN values were recorded on the commit
before the zone table (``overlay/can/table.py``) existed, the other
two on the commit before the backends shared one ``insert``/``lookup``;
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
from repro.faults import FaultPlan
from repro.overlay.adapt import AdaptConfig
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


#: The CAN session's range queries with the load-adaptation loop on, and
#: the same on a lossy fabric: retrieval then runs through the relay
#: tree, delta-encoded responses and ``reliable_send``'s retries.
#: ``decision_tuples`` digests every ``AdaptationDecision.as_tuple()``
#: in order; ``counters`` is the fault injector's snapshot. Recorded before retrieval became one code path.
ADAPTED_GOLDEN = {
    'clean': {'by_kind': {'data': (161, 23104),
                          'insert': (1169, 70720),
                          'join': (86, 3960),
                          'range_query': (519, 28544),
                          'replicate': (845, 61736),
                          'retrieve': (170, 96072)},
              'node_traffic': 'c242ee29b4b0002f',
              'decisions': 219,
              'decision_tuples': 'bfb3437082af549b',
              'counters': {},
              'range_retrieval_messages': 331,
              'range_items': 'f1fb06e4f76781db',
              'failed_contacts': '61075316940f2cb1'},
    'lossy': {'by_kind': {'data': (181, 26912),
                          'insert': (1169, 70720),
                          'join': (86, 3960),
                          'range_query': (589, 32312),
                          'replicate': (845, 61736),
                          'retrieve': (185, 104512)},
              'node_traffic': '4ff4798bb7a853c9',
              'decisions': 219,
              'decision_tuples': '31002522c6ac0e30',
              'counters': {'counters': {'drops': 37,
                                        'index_response_drops': 16,
                                        'link_retransmits': 322,
                                        'retries': 53,
                                        'timeouts': 53},
                           'crashed_peers': [],
                           'tombstoned_peers': []},
              'range_retrieval_messages': 366,
              'range_items': 'f1fb06e4f76781db',
              'failed_contacts': '61075316940f2cb1'},
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
        # Who sent and who received: equal hop totals do not tell a
        # chain of forwards from a star of probes, this does.
        **_traffic(network),
        **range_totals,
        "range_nodes_visited": range_visited,
        "range_index_hops": sum(r.index_hops for r in ranges),
        "range_retrieval_messages": sum(r.retrieval_messages for r in ranges),
        "range_items": _digest([sorted(map(int, r.item_ids)) for r in ranges]),
        "knn_index_hops": sum(r.index_hops for r in knns),
        "knn_items": _digest([sorted(map(int, r.item_ids)) for r in knns]),
    }


def _traffic(network) -> dict:
    """Per-kind ``(messages, bytes)`` plus the per-node traffic digest."""
    return {
        "by_kind": {
            kind.value: (bucket.messages, bucket.bytes)
            for kind, bucket in sorted(
                network.fabric.metrics.by_kind.items(),
                key=lambda item: item[0].value,
            )
        },
        "node_traffic": _digest([
            (node_id, load.msgs_in, load.msgs_out, load.bytes_in,
             load.bytes_out)
            for node_id, load in sorted(network.fabric.load.per_node.items())
        ]),
    }


def run_adapted_session(loss: float | None) -> dict:
    """The CAN session's 30 range queries, adapted, optionally lossy."""
    plan = None if loss is None else FaultPlan(loss=loss, seed=5)
    with run_context(adapt=AdaptConfig(epoch_queries=4), fault_plan=plan):
        workload = build_histogram_network(
            n_peers=16,
            n_objects=64,
            views_per_object=8,
            n_bins=64,
            config=HyperMConfig(levels_used=4, n_clusters=6),
            rng=2007,
        )
    network = workload.network
    queries = sample_queries(workload.data, 30, rng=11, jitter=0.01)
    origins = np.random.default_rng(12).integers(0, network.n_peers, 30)
    ranges = [
        network.range_query(
            query, EPSILON, max_peers=6, origin_peer=int(origin)
        )
        for query, origin in zip(queries, origins)
    ]
    injector = network.fabric.faults
    return {
        **_traffic(network),
        "decisions": len(network.adaptation.decisions),
        "decision_tuples": _digest([
            decision.as_tuple() for decision in network.adaptation.decisions
        ]),
        "counters": {} if injector is None else injector.snapshot(),
        "range_retrieval_messages": sum(r.retrieval_messages for r in ranges),
        "range_items": _digest([sorted(map(int, r.item_ids)) for r in ranges]),
        "failed_contacts": _digest([r.failed_contacts for r in ranges]),
    }


def _check(kind: str) -> None:
    observed = run_session(kind)
    for name, expected in GOLDEN[kind].items():
        assert observed[name] == expected, (kind, name)


def test_routed_session_counts_are_pinned():
    _check("can")


@pytest.mark.parametrize(
    "kind", ["baton", "vbi"],
    ids=lambda kind: OVERLAYS[kind].__name__,  # what CI's matrix -k selects
)
def test_backend_session_counts_are_pinned(kind):
    _check(kind)


@pytest.mark.parametrize("arm", ["clean", "lossy"])
def test_adapted_session_counts_are_pinned(arm):
    observed = run_adapted_session(None if arm == "clean" else 0.1)
    for name, expected in ADAPTED_GOLDEN[arm].items():
        assert observed[name] == expected, (arm, name)


if __name__ == "__main__":
    import pprint

    pprint.pprint(
        {kind: run_session(kind) for kind in OVERLAYS}, sort_dicts=False
    )
    pprint.pprint({
        "clean": run_adapted_session(None),
        "lossy": run_adapted_session(0.1),
    }, sort_dicts=False)
