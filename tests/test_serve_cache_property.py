"""Property: generation-keyed caching never serves a stale candidate set.

Hypothesis interleaves store mutations (post-publish inserts +
``publish_delta``, summary withdrawal, republish) with cached batched
queries on a small fresh network per example, and pins the serving
tier's safety contract:

* no ``StaleCandidateError`` ever escapes the engine (staleness is
  handled by eviction + recompute, never by an error storm);
* every batched result equals the sequential
  :meth:`HyperMNetwork.range_query` answer at 1e-9 — *after any prefix
  of mutations*, i.e. the cache never silently serves yesterday's
  candidates;
* mutations actually invalidate: re-running a cached query after a
  delta round evicts the stale entries (observed via the stale counter);
* a churned serving session (range batches at the default
  :class:`ServeConfig`, a write round after every 2nd batch) keeps its
  exact answers, ``peer_scores`` bits, fabric traffic and per-level
  sphere heat (``CHURN_GOLDEN``);
* so does a repeating session (``REPEAT_GOLDEN``): Zipf batches over a
  few queries with k-NN requests mixed in, where a contacted peer adds
  and drops items *without* publishing (the next answers must see it),
  one delta is published, and a second pass runs adapted.

Cache hit/miss counts are not pinned: they are an execution strategy,
not an answer. Regenerate the values with ``python
tests/test_serve_cache_property.py`` only for a deliberate change of
what the serving tier answers or sends.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.network import HyperMConfig
from repro.evaluation.workloads import build_markov_network, sample_queries
from repro.serve import KnnRequest, RangeRequest, ServeConfig, ServeEngine

N_PEERS = 6
N_QUERIES = 4
EPSILON = 0.3
BATCH = 8
CHURN_BATCHES = 12
REPEAT_BATCHES = 8

#: Recorded with the query-log pre-warmer still in the engine, which
#: re-primed 40 invalidated look-ups in this session.
CHURN_GOLDEN = {
    'item_ids': '6752b387bde2e487',
    'peer_scores': '0edfb866b4c696f3',
    'by_kind': {'data': (225, 87984),
                'insert': (52, 2912),
                'join': (7, 280),
                'publish_delta': (39, 2432),
                'replicate': (29, 1624),
                'retrieve': (225, 39600)},
    'sphere_heat': {'A': '34372b8f225ea29a', 'D0': 'f2419ca8c30370db'},
}


#: Recorded before the serve tier memoized repeated requests.
REPEAT_GOLDEN = {
    'item_ids': '2dc2e972b666358d',
    'peer_scores': '4e3ee0cb49878b31',
    'by_kind': {'data': (307, 80064),
                'insert': (52, 2912),
                'join': (7, 280),
                'publish_delta': (5, 304),
                'replicate': (61, 3416),
                'retrieve': (307, 54200)},
    'sphere_heat': {'A': 'c43685a40771c46e', 'D0': '3707c04ec8157be6'},
}


def _build():
    workload, __ = build_markov_network(
        n_peers=N_PEERS,
        items_per_peer=20,
        dimensionality=16,
        config=HyperMConfig(levels_used=2, n_clusters=3),
        rng=77,
        publish=True,
    )
    return workload


def _assert_parity(engine, network, queries):
    requests = [
        RangeRequest(query=q, epsilon=EPSILON, max_peers=3) for q in queries
    ]
    batched = engine.execute_batch(requests)
    for request, served in zip(requests, batched):
        sequential = network.range_query(
            request.query, request.epsilon, max_peers=request.max_peers
        )
        assert sorted(i.item_id for i in served.items) == sorted(
            i.item_id for i in sequential.items
        )
        assert set(served.peer_scores) == set(sequential.peer_scores)
        for peer, score in served.peer_scores.items():
            assert score == pytest.approx(
                sequential.peer_scores[peer], abs=1e-9
            )


operation = st.one_of(
    st.tuples(st.just("query"), st.integers(0, N_QUERIES - 1)),
    st.tuples(st.just("delta"), st.integers(0, N_PEERS - 1)),
    st.tuples(st.just("withdraw"), st.integers(0, N_PEERS - 1)),
    st.tuples(st.just("republish"), st.integers(0, N_PEERS - 1)),
)


@settings(max_examples=15, deadline=None)
@given(
    ops=st.lists(operation, min_size=2, max_size=8),
    seed=st.integers(0, 100),
)
def test_interleaved_mutations_never_serve_stale_candidates(ops, seed):
    workload = _build()
    network = workload.network
    queries = sample_queries(
        workload.data, N_QUERIES, rng=np.random.default_rng(seed)
    )
    engine = ServeEngine(network, ServeConfig(cache_candidates=64))
    rng = np.random.default_rng(seed + 1)
    next_item_id = 1_000_000
    peer_ids = list(network.peers)

    _assert_parity(engine, network, queries)  # warm the caches
    for op, index in ops:
        if op == "query":
            _assert_parity(engine, network, [queries[index]])
        elif op == "delta":
            peer = network.peers[peer_ids[index]]
            fresh = rng.random((3, network.dimensionality))
            peer.add_items(
                fresh, np.arange(next_item_id, next_item_id + 3)
            )
            next_item_id += 3
            network.publish_delta(peer_ids[index])
        elif op == "withdraw":
            network.withdraw_summaries(peer_ids[index])
        elif op == "republish":
            network.republish_peer(peer_ids[index])
        # Whatever just happened, the very next batch must agree with
        # the sequential plane on the network's *current* state.
        _assert_parity(engine, network, queries[:2])

    snap = engine.snapshot()["candidate_cache"]
    assert snap["hits"] + snap["misses"] > 0


def test_delta_round_evicts_stale_entries():
    """A publish_delta between two identical queries forces stale drops."""
    workload = _build()
    network = workload.network
    queries = sample_queries(
        workload.data, 2, rng=np.random.default_rng(5)
    )
    engine = ServeEngine(network)
    _assert_parity(engine, network, queries)
    assert engine.snapshot()["candidate_cache"]["stale"] == 0

    peer_id = next(iter(network.peers))
    network.peers[peer_id].add_items(
        np.random.default_rng(6).random((4, network.dimensionality)),
        np.arange(2_000_000, 2_000_004),
    )
    network.publish_delta(peer_id)

    _assert_parity(engine, network, queries)
    assert engine.snapshot()["candidate_cache"]["stale"] > 0


def test_withdrawn_peer_disappears_from_batched_results():
    workload = _build()
    network = workload.network
    queries = sample_queries(
        workload.data, 3, rng=np.random.default_rng(9)
    )
    engine = ServeEngine(network)
    _assert_parity(engine, network, queries)
    victim = next(iter(network.peers))
    network.withdraw_summaries(victim)
    requests = [RangeRequest(query=q, epsilon=EPSILON) for q in queries]
    for result in engine.execute_batch(requests):
        assert victim not in result.peer_scores
    _assert_parity(engine, network, queries)


def _digest(values) -> str:
    """Short stable hash of a nested structure (order-sensitive)."""
    return hashlib.sha256(repr(values).encode()).hexdigest()[:16]


def _write(network, peer, rng, next_item_id: int) -> int:
    """One peer adds 6 jittered views of 2 rows, drops 3, publishes a delta."""
    rows = peer.data[rng.integers(0, peer.n_items, 2)]
    views = np.clip(
        np.repeat(rows, 3, axis=0)
        + rng.normal(0.0, 0.01, (6, network.dimensionality)),
        0.0, 1.0,
    )
    peer.add_items(views, np.arange(next_item_id, next_item_id + 6))
    published = peer.item_ids[:peer.unpublished_from]
    peer.remove_items(rng.choice(published, size=3, replace=False))
    network.publish_delta(peer.peer_id)
    return next_item_id + 6


def _pinned(network, served) -> dict:
    """What a session's golden pins: answers, scores, traffic, heat."""
    return {
        "item_ids": _digest([sorted(map(int, r.item_ids)) for r in served]),
        "peer_scores": _digest([
            sorted((int(peer), float(score).hex())
                   for peer, score in r.peer_scores.items())
            for r in served
        ]),
        "by_kind": {
            kind.value: (bucket.messages, bucket.bytes)
            for kind, bucket in sorted(
                network.fabric.metrics.by_kind.items(),
                key=lambda item: item[0].value,
            )
        },
        "sphere_heat": {
            str(level): _digest(sorted(
                network.overlays[level].level_store.sphere_heat().items()
            ))
            for level in network.levels
        },
    }


def run_churn_session() -> dict:
    """Zipf-skewed range batches; after every 2nd one a peer writes."""
    workload = _build()
    network = workload.network
    rng = np.random.default_rng(31)
    distinct = sample_queries(workload.data, 6, rng=rng)
    weights = 1.0 / np.arange(1, 7, dtype=np.float64)
    picks = rng.choice(6, size=BATCH * CHURN_BATCHES, p=weights / weights.sum())
    engine = ServeEngine(network, ServeConfig())
    peer_ids = list(network.peers)
    next_item_id = 1_000_000
    served = []
    for number in range(CHURN_BATCHES):
        served.extend(engine.execute_batch([
            RangeRequest(query=distinct[pick], epsilon=EPSILON, max_peers=3)
            for pick in picks[number * BATCH:(number + 1) * BATCH]
        ]))
        if number % 2 == 1:
            peer = network.peers[peer_ids[number // 2 % N_PEERS]]
            next_item_id = _write(network, peer, rng, next_item_id)
    return {
        **_pinned(network, served),
        "stale": engine.snapshot()["candidate_cache"]["stale"],
    }


def run_repeat_session() -> dict:
    """Repeated Zipf batches; peers change between them, one publishes.

    Two passes of ``REPEAT_BATCHES`` batches over 4 distinct queries,
    every 3rd batch ending in a k-NN request; the second pass runs with
    adaptation on. In each pass, after batch 2 a peer the last answer
    contacted adds jittered copies of the hottest query and drops the
    items it just returned, and publishes nothing: direct retrieval
    filters every held item, so the next answers must change. After
    pass 1's batch 5 that peer publishes one delta.
    """
    workload = _build()
    network = workload.network
    rng = np.random.default_rng(43)
    distinct = sample_queries(workload.data, 4, rng=rng)
    weights = 1.0 / np.arange(1, 5, dtype=np.float64)
    engine = ServeEngine(network, ServeConfig())
    next_item_id = 1_000_000
    served = []
    added = set()
    dropped = []  # (answers served before the drop, dropped ids)
    for adapted in (False, True):
        if adapted:
            network.enable_adaptation()
        picks = rng.choice(
            4, size=BATCH * REPEAT_BATCHES, p=weights / weights.sum()
        )
        for number in range(REPEAT_BATCHES):
            batch = [
                RangeRequest(query=distinct[pick], epsilon=EPSILON, max_peers=3)
                for pick in picks[number * BATCH:(number + 1) * BATCH]
            ]
            if number % 3 == 2:
                batch[-1] = KnnRequest(query=batch[-1].query, k=3)
            served.extend(engine.execute_batch(batch))
            if number == 2:
                last = served[-2]
                peer = network.peers[last.peers_contacted[0]]
                views = np.clip(
                    distinct[0] + rng.normal(
                        0.0, 0.002, (4, network.dimensionality)
                    ),
                    0.0, 1.0,
                )
                fresh = np.arange(next_item_id, next_item_id + 4)
                peer.add_items(views, fresh)
                next_item_id += 4
                added.update(fresh.tolist())
                gone = sorted(
                    item.item_id for item in last.items
                    if item.peer_id == peer.peer_id
                )[:2] or peer.item_ids[:2].tolist()
                peer.remove_items(gone)
                dropped.append((len(served), set(gone)))
            if number == 5 and not adapted:
                network.publish_delta(peer.peer_id)
    answered = set().union(*(r.item_ids for r in served))
    return {
        **_pinned(network, served),
        "unpublished_served": bool(added & answered),
        "dropped_served_after": any(
            gone & r.item_ids for start, gone in dropped
            for r in served[start:]
        ),
    }


def test_churned_session_answers_are_pinned():
    observed = run_churn_session()
    # The writes must actually invalidate cached look-ups, or the pin
    # would cover a cache-only session.
    assert observed.pop("stale") > 0
    assert observed == CHURN_GOLDEN


def test_repeated_session_answers_are_pinned():
    observed = run_repeat_session()
    # Items added without a publish reach the answers, dropped ones
    # leave them: the pin covers a peer whose data moved under a warm
    # cache.
    assert observed.pop("unpublished_served")
    assert not observed.pop("dropped_served_after")
    assert observed == REPEAT_GOLDEN


if __name__ == "__main__":
    import pprint

    for name, run in (("CHURN", run_churn_session), ("REPEAT", run_repeat_session)):
        session = run()
        for flag in ("stale", "unpublished_served", "dropped_served_after"):
            session.pop(flag, None)
        print(f"{name}_GOLDEN =")
        pprint.pprint(session, width=79, compact=True, sort_dicts=False)
