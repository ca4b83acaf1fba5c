"""Golden exact answers of the k-NN heuristic, routed and served.

Figure 5 inverts Eq. 8 numerically, so everything downstream of the
per-level radius — which spheres the final look-up returns, the Eq. 1
scores, which peers are asked for how many items — moves if one bit of
``ε_l`` moves. A change that claims to feed the root-finder the same
numbers by another route (columns instead of sphere objects, a cached
probe, a batched discovery) must leave all of it alone; this test pins
32 routed answers (:func:`repro.core.knn.knn_query`) and 32 served ones
(:class:`repro.serve.ServeEngine`, four batches of eight; the third asks
``k = 1`` with ``early_termination=True``, where the Theorem 3.1 bounds
do cut the contact loop short) of one seeded 16-peer network: the exact
``epsilon_per_level`` floats (as ``float.hex``), the item ids in answer
order, the exact ``peer_scores``, ``index_hops`` and
``retrieval_messages``, plus the early batch's per-peer lower bounds and
skip counters. The values were recorded on the commit before
Eq. 8 took columns; regenerate them with ``python
tests/test_knn_golden.py`` only for a deliberate change of the
heuristic's arithmetic or protocol, and say so in the commit.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.core import knn
from repro.core.network import HyperMConfig
from repro.evaluation.workloads import build_markov_network, sample_queries
from repro.serve import KnnRequest, ServeEngine

K = 5
BATCH = 8
#: First query of the batch served with ``k = 1`` and early termination.
EARLY = 16

#: Per arm: digests over all 32 answers, then the plain integer columns
#: and the first answer's radii so a failure says *what* moved.
GOLDEN = {'routed': {'epsilon_per_level': '682652b6b8e48aa6',
            'first_epsilons': [('A', '0x1.3b26806cf6f26p-9'),
                               ('D0', '0x1.37e320b1c5df0p-11'),
                               ('D1', '0x1.ff634374f470ep-8'),
                               ('D2', '0x1.d6a9e322e2aebp-6')],
            'item_ids': '5f68e5929396014e',
            'peer_scores': '8ebeb866eab530b0',
            'peers_contacted': '982ec0e281ae62f3',
            'index_hops': [54, 47, 52, 56, 44, 46, 61, 41, 53, 48, 35, 55, 46,
                           52, 24, 45, 30, 55, 61, 49, 43, 70, 50, 30, 35, 47,
                           58, 65, 59, 36, 37, 37],
            'retrieval_messages': [18, 18, 16, 20, 20, 20, 18, 14, 16, 18, 10,
                                   22, 20, 18, 18, 22, 12, 18, 18, 14, 10, 16,
                                   18, 8, 18, 18, 14, 16, 20, 8, 16, 12]},
 'served': {'epsilon_per_level': '0966880fc4a5fed0',
            'first_epsilons': [('A', '0x1.3b26806cf6f26p-9'),
                               ('D0', '0x1.37e320b1c5df0p-11'),
                               ('D1', '0x1.ff634374f470ep-8'),
                               ('D2', '0x1.d6a9e322e2aebp-6')],
            'item_ids': '9332fd76fef33409',
            'peer_scores': '6612b740d595dba0',
            'peers_contacted': 'a761b4697d0c554c',
            'index_hops': [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
                           0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
            'retrieval_messages': [18, 18, 16, 20, 20, 20, 18, 14, 16, 18, 10,
                                   22, 20, 18, 18, 22, 4, 16, 12, 14, 2, 16,
                                   12, 4, 18, 18, 14, 16, 20, 8, 16, 12],
            'peer_lower_bounds': '384cd7706af0f3fc',
            'knn_early_stops': 4,
            'knn_peers_skipped': 7}}


def _digest(values) -> str:
    return hashlib.sha256(repr(values).encode()).hexdigest()[:16]


def _summarise(results) -> dict:
    eps = [
        sorted((str(level), value.hex())
               for level, value in result.epsilon_per_level.items())
        for result in results
    ]
    return {
        "epsilon_per_level": _digest(eps),
        "first_epsilons": eps[0],
        "item_ids": _digest(
            [[item.item_id for item in result.items] for result in results]
        ),
        "peer_scores": _digest([
            sorted((int(peer), float(score).hex())
                   for peer, score in result.peer_scores.items())
            for result in results
        ]),
        "peers_contacted": _digest(
            [list(result.peers_contacted) for result in results]
        ),
        "index_hops": [result.index_hops for result in results],
        "retrieval_messages": [
            result.retrieval_messages for result in results
        ],
    }


def run_session() -> dict:
    """Publish 16 peers, ask the same 32 k-NN queries on both paths."""
    workload, __ = build_markov_network(
        n_peers=16,
        items_per_peer=40,
        dimensionality=32,
        config=HyperMConfig(levels_used=4, n_clusters=4),
        rng=2007,
        publish=True,
    )
    network = workload.network
    queries = sample_queries(workload.data, 32, rng=np.random.default_rng(13))
    origins = np.random.default_rng(14).integers(0, network.n_peers, 32)
    routed = [
        network.knn_query(query, K, origin_peer=int(origin))
        for query, origin in zip(queries, origins)
    ]
    engine = ServeEngine(network)
    served = []
    bounds = []
    lower_bounds = knn._peer_lower_bounds

    def recording_bounds(*args):
        bounds.append(lower_bounds(*args))
        return bounds[-1]

    knn._peer_lower_bounds = recording_bounds
    try:
        for start in range(0, 32, BATCH):
            early = start == EARLY
            served.extend(engine.execute_batch([
                KnnRequest(
                    query=query, k=1 if early else K,
                    origin_peer=int(origin), early_termination=early,
                )
                for query, origin in zip(
                    queries[start:start + BATCH],
                    origins[start:start + BATCH],
                )
            ]))
    finally:
        knn._peer_lower_bounds = lower_bounds
    snapshot = engine.snapshot()
    return {
        "routed": _summarise(routed),
        "served": {
            **_summarise(served),
            "peer_lower_bounds": _digest([
                sorted((int(peer), bound.hex()) for peer, bound in b.items())
                for b in bounds
            ]),
            "knn_early_stops": snapshot["knn_early_stops"],
            "knn_peers_skipped": snapshot["knn_peers_skipped"],
        },
    }


@pytest.fixture(scope="module")
def session():
    return run_session()


@pytest.mark.parametrize("arm", ["routed", "served"])
def test_knn_answers_are_exact(session, arm):
    assert session[arm] == GOLDEN[arm]


def test_early_batch_exercises_the_lower_bounds(session):
    """The pin covers ``_peer_lower_bounds`` only if termination fires."""
    assert session["served"]["knn_peers_skipped"] > 0
    assert all(hops == 0 for hops in session["served"]["index_hops"])


if __name__ == "__main__":
    import pprint

    pprint.pprint(run_session(), width=79, compact=True, sort_dicts=False)
