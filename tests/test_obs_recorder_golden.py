"""Golden exports of both recorders for one seeded lossy session.

The span tracer and the flight recorder describe the same run from two
sides: spans count every descendant's traffic, flight operations count
only their own frames and keep the per-frame edges. A refactor of the
recorders ("code motion only") must leave every exported byte alone.
This test pins, for one 8-peer CAN session under a lossy, duplicating
fault plan (publish, one delta republish, 4 range queries, 1 k-NN query
and one served batch):

* the sha256 of both ``dumps_jsonl()`` texts;
* the flight recorder's ``per_op_histograms()`` and ``snapshot()``;
* every retained operation's ``routing_tree`` (digested);
* the causal coordinates ``(trace, op, seq)`` of every sampled primary
  edge as it is recorded (counted, and the last one kept) — the ring
  itself evicts most of them.

Flight sampling is on (half the root operations) and both of its rings
are small enough to evict, so sampling, eviction and the surviving
counters are all pinned. Regenerate with ``python
tests/test_obs_recorder_golden.py`` only for a deliberate change to a
recorder's output, and say so in the commit.
"""

from __future__ import annotations

import hashlib
import json
from collections import deque

import numpy as np

from repro.core.network import HyperMConfig, HyperMNetwork
from repro.faults import FaultPlan
from repro.obs.flight import FlightRecorder
from repro.obs.trace import TraceRecorder
from repro.runtime import run_context
from repro.serve.engine import KnnRequest, RangeRequest, ServeEngine

DIM = 16
CAPACITY = 60
MAX_OPS = 40

GOLDEN = {'flight_jsonl': '4679cce5ec03b26f9c054b98c5bba33de5af05d9e9613ac27d4ec90786536116',
          'trace_jsonl': 'd3c7be65a03de01e3267765038bf8076e64b7919f5c853e9c620e8af4c108e33',
          'per_op_histograms': {'insert': {'ops': 9,
                                           'hop_counts': {'2': 2,
                                                          '3': 2,
                                                          '4': 3,
                                                          '5': 1,
                                                          '6': 1},
                                           'drops': 0,
                                           'retransmits': 2,
                                           'duplicates': 0,
                                           'hops': {'count': 9,
                                                    'mean': 3.6666666666666665,
                                                    'min': 2.0,
                                                    'max': 6.0},
                                           'bytes': {'count': 9,
                                                     'mean': 217.77777777777777,
                                                     'min': 112.0,
                                                     'max': 384.0}},
                                'patch': {'ops': 3,
                                          'hop_counts': {'0': 3},
                                          'drops': 0,
                                          'retransmits': 0,
                                          'duplicates': 0,
                                          'hops': {'count': 3,
                                                   'mean': 0.0,
                                                   'min': 0.0,
                                                   'max': 0.0},
                                          'bytes': {'count': 3,
                                                    'mean': 0.0,
                                                    'min': 0.0,
                                                    'max': 0.0}},
                                'publish': {'ops': 2,
                                            'hop_counts': {'0': 2},
                                            'drops': 0,
                                            'retransmits': 0,
                                            'duplicates': 0,
                                            'hops': {'count': 2,
                                                     'mean': 0.0,
                                                     'min': 0.0,
                                                     'max': 0.0},
                                            'bytes': {'count': 2,
                                                      'mean': 0.0,
                                                      'min': 0.0,
                                                      'max': 0.0}},
                                'publish_delta': {'ops': 1,
                                                  'hop_counts': {'0': 1},
                                                  'drops': 0,
                                                  'retransmits': 0,
                                                  'duplicates': 0,
                                                  'hops': {'count': 1,
                                                           'mean': 0.0,
                                                           'min': 0.0,
                                                           'max': 0.0},
                                                  'bytes': {'count': 1,
                                                            'mean': 0.0,
                                                            'min': 0.0,
                                                            'max': 0.0}},
                                'query': {'ops': 5,
                                          'hop_counts': {'0': 4, '7': 1},
                                          'drops': 1,
                                          'retransmits': 0,
                                          'duplicates': 1,
                                          'hops': {'count': 5,
                                                   'mean': 1.4,
                                                   'min': 0.0,
                                                   'max': 7.0},
                                          'bytes': {'count': 5,
                                                    'mean': 131.2,
                                                    'min': 0.0,
                                                    'max': 656.0}},
                                'range_query': {'ops': 19,
                                                'hop_counts': {'0': 16, '5': 1, '7': 2},
                                                'drops': 0,
                                                'retransmits': 2,
                                                'duplicates': 0,
                                                'hops': {'count': 19,
                                                         'mean': 1.0000000000000002,
                                                         'min': 0.0,
                                                         'max': 7.0},
                                                'bytes': {'count': 19,
                                                          'mean': 50.94736842105264,
                                                          'min': 0.0,
                                                          'max': 392.0}},
                                'serve_batch': {'ops': 1,
                                                'hop_counts': {'0': 1},
                                                'drops': 0,
                                                'retransmits': 0,
                                                'duplicates': 0,
                                                'hops': {'count': 1,
                                                         'mean': 0.0,
                                                         'min': 0.0,
                                                         'max': 0.0},
                                                'bytes': {'count': 1,
                                                          'mean': 0.0,
                                                          'min': 0.0,
                                                          'max': 0.0}}},
          'snapshot': {'edges': 60,
                       'ops': 40,
                       'evicted_edges': 107,
                       'evicted_ops': 90,
                       'capacity': 60,
                       'sample': 0.5},
          'routing_trees': '9d08c5ef822f8f88e1492a7807ea3abb663ce4e416a65443ccc4e154e80bbdab',
          'trees': 40,
          'stamps': 154,
          'message': (111, 111, 7)}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def run_session() -> dict:
    """Drive the pinned session; returns every pinned value."""
    flight = FlightRecorder(
        capacity=CAPACITY, max_ops=MAX_OPS, sample=0.5, seed=1,
        clock=lambda: 0.0,
    )
    tracer = TraceRecorder(clock=lambda: 0.0)
    plan = FaultPlan(loss=0.1, duplication=0.02, seed=3)
    with run_context(fault_plan=plan, flight=flight, tracer=tracer):
        network = HyperMNetwork(
            DIM, HyperMConfig(levels_used=3, n_clusters=3), rng=0
        )
        stamps = []

        class Tap(deque):
            # The recorder appends each primary edge (its tagged extras
            # go through extend); a sampled-out operation records none
            # and an orphan edge has no trace.
            def append(self, edge):
                super().append(edge)
                if edge.trace_id is not None:
                    stamps.append((edge.trace_id, edge.op_id, edge.seq))

        flight.edges = Tap(maxlen=CAPACITY)
        rng = np.random.default_rng(5)
        for __ in range(8):
            network.add_peer(rng.random((20, DIM)))
        network.publish_all()
        network.peers[3].add_items(
            rng.random((6, DIM)), np.arange(1_000_000, 1_000_006)
        )
        network.publish_delta(3)
        for __ in range(4):
            network.range_query(rng.random(DIM), 0.6, max_peers=3)
        network.knn_query(rng.random(DIM), 5)
        ServeEngine(network).execute_batch([
            RangeRequest(query=rng.random(DIM), epsilon=0.6, max_peers=3),
            KnnRequest(query=rng.random(DIM), k=4),
        ])
    trees = [
        flight.routing_tree(record["op"])
        for record in flight.op_summaries()
    ]
    return {
        "flight_jsonl": _sha(flight.dumps_jsonl()),
        "trace_jsonl": _sha(tracer.dumps_jsonl()),
        "per_op_histograms": flight.per_op_histograms(),
        "snapshot": flight.snapshot(),
        "routing_trees": _sha(json.dumps(trees, sort_keys=True)),
        "trees": len(trees),
        "stamps": len(stamps),
        "message": stamps[-1],
    }


class TestRecorderGolden:
    def test_session_matches_golden(self):
        assert run_session() == GOLDEN

    def test_both_rings_evict_and_sampling_drops_roots(self):
        assert GOLDEN["snapshot"]["evicted_edges"] > 0
        assert GOLDEN["snapshot"]["evicted_ops"] > 0
        assert GOLDEN["trees"] == MAX_OPS


if __name__ == "__main__":
    import pprint

    pprint.pprint(run_session(), sort_dicts=False)
