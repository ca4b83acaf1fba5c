"""The serving engine: parity, admission, coalescing.

The contract under test: :class:`repro.serve.ServeEngine` is an
*execution strategy*, not a different query plane — batched range
results match :meth:`HyperMNetwork.range_query` and batched k-NN (with
early termination off) matches :meth:`HyperMNetwork.knn_query`
exactly, ``index_hops`` excepted (the engine co-locates the index).
On top of that sit the serving behaviours: bounded-queue shedding
and batch coalescing.
"""

import asyncio
import weakref
from collections import defaultdict

import numpy as np
import pytest

from repro.core import queries as core_queries
from repro.core import scoring as core_scoring
from repro.core.network import HyperMConfig
from repro.core.peer import HyperMPeer
from repro.core.queries import level_plan
from repro.core.scoring import rank_peers
from repro.evaluation.workloads import build_markov_network, sample_queries
from repro.exceptions import QueryError, ServeError, ValidationError
from repro.faults import FaultPlan
from repro.obs.flight import FlightRecorder
from repro.runtime import run_context
from repro.serve import (
    KnnRequest,
    RangeRequest,
    ServeConfig,
    ServeEngine,
    run_open_loop,
)
from repro.serve import cache as serve_cache
from repro.serve import engine as serve_engine


@pytest.fixture(scope="module")
def workload():
    built, __ = build_markov_network(
        n_peers=8,
        items_per_peer=40,
        dimensionality=16,
        config=HyperMConfig(levels_used=3, n_clusters=4),
        rng=21,
        publish=True,
    )
    return built


@pytest.fixture(scope="module")
def queries(workload):
    return sample_queries(workload.data, 8, rng=np.random.default_rng(22))


def _item_ids(result):
    return sorted(item.item_id for item in result.items)


class TestConfig:
    def test_rejects_bad_knobs(self):
        with pytest.raises(ValidationError):
            ServeConfig(max_queue=0)
        with pytest.raises(ValidationError):
            ServeConfig(max_inflight=0)
        with pytest.raises(ValidationError):
            ServeConfig(max_batch=0)
        with pytest.raises(ValidationError):
            ServeConfig(batch_window=-0.1)
        with pytest.raises(ValidationError):
            ServeConfig(cache_candidates=0)
        # Values a comparison with the floor lets through: a fractional
        # count, a bool, a non-finite window.
        for bad in (
            {"max_inflight": 1.5},
            {"cache_candidates": 2.7},
            {"max_queue": True},
            {"max_batch": np.float64(4.0)},
            {"batch_window": float("nan")},
            {"batch_window": float("inf")},
            {"batch_window": False},
        ):
            with pytest.raises(ValidationError):
                ServeConfig(**bad)
        config = ServeConfig(max_queue=np.int64(8), batch_window=0)
        assert config.max_queue == 8


class TestRangeParity:
    def test_batched_matches_sequential(self, workload, queries):
        network = workload.network
        engine = ServeEngine(network)
        requests = [
            RangeRequest(query=q, epsilon=0.3, max_peers=3) for q in queries
        ]
        batched = engine.execute_batch(requests)
        for request, served in zip(requests, batched):
            sequential = network.range_query(
                request.query, request.epsilon, max_peers=request.max_peers
            )
            assert _item_ids(served) == _item_ids(sequential)
            assert served.peers_contacted == sequential.peers_contacted
            assert set(served.peer_scores) == set(sequential.peer_scores)
            for peer, score in served.peer_scores.items():
                assert score == pytest.approx(
                    sequential.peer_scores[peer], abs=1e-9
                )
            assert served.index_hops == 0
            assert served.confidence == sequential.confidence

    def test_single_execute_equals_batch_of_one(self, workload, queries):
        engine = ServeEngine(workload.network)
        request = RangeRequest(query=queries[0], epsilon=0.25)
        assert _item_ids(engine.execute(request)) == _item_ids(
            engine.execute_batch([request])[0]
        )

    def test_mixed_batch_preserves_order(self, workload, queries):
        engine = ServeEngine(workload.network)
        requests = [
            RangeRequest(query=queries[0], epsilon=0.3),
            KnnRequest(query=queries[1], k=3),
            RangeRequest(query=queries[2], epsilon=0.2),
        ]
        results = engine.execute_batch(requests)
        assert results[0].peer_scores  # RangeQueryResult
        assert results[1].requested_k == 3  # KnnResult
        assert results[2].peer_scores

    def test_validation_errors_surface(self, workload, queries):
        engine = ServeEngine(workload.network)
        with pytest.raises(ValidationError):
            engine.execute(RangeRequest(query=np.ones(3), epsilon=0.1))
        with pytest.raises(ValidationError):
            engine.execute(RangeRequest(query=queries[0], epsilon=-1.0))
        with pytest.raises(QueryError):
            engine.execute(
                RangeRequest(query=queries[0], epsilon=0.1, origin_peer=999)
            )
        assert engine.execute_batch([]) == []


    @pytest.mark.parametrize("budget", [-1, 1.0, False])
    def test_bad_peer_budget_fails_the_batch_at_planning(
        self, workload, queries, budget
    ):
        engine = ServeEngine(workload.network)
        good = RangeRequest(query=queries[0], epsilon=0.3)
        metrics = workload.network.fabric.metrics
        before = metrics.total_messages
        for bad in (
            RangeRequest(query=queries[1], epsilon=0.3, max_peers=budget),
            KnnRequest(query=queries[1], k=3, top_p=budget),
        ):
            with pytest.raises(ValidationError):
                engine.execute_batch([good, bad])
        assert metrics.total_messages == before
        assert engine.execute(
            RangeRequest(query=queries[0], epsilon=0.3, max_peers=0)
        ).peers_contacted == []


def _count_calls(monkeypatch, module, name) -> list:
    """Swap ``module.name`` for a wrapper that logs each call's args."""
    calls: list = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


class TestScoreOncePerLookup:
    """A look-up's Eq. 1 table lives with its cached candidates.

    The table is a pure function of (store generation, level, key,
    radius), so a cache hit serves it as is; the results stay ``==`` —
    bit for bit — to a sequential ``range_query``.
    """

    @staticmethod
    def _requests(queries):
        return [
            RangeRequest(query=q, epsilon=0.3, max_peers=3) for q in queries
        ]

    @staticmethod
    def _assert_equals_sequential(network, requests, served):
        assert any(result.peer_scores for result in served)
        for request, result in zip(requests, served):
            sequential = network.range_query(
                request.query, request.epsilon, max_peers=request.max_peers
            )
            assert result.peer_scores == sequential.peer_scores
            assert result.peers_contacted == sequential.peers_contacted
            assert _item_ids(result) == _item_ids(sequential)

    def test_repeat_batch_scores_nothing(
        self, workload, queries, monkeypatch
    ):
        network = workload.network
        engine = ServeEngine(network)
        requests = self._requests(queries)
        first = engine.execute_batch(requests)
        scored = _count_calls(monkeypatch, serve_cache, "level_scores")
        kernel = _count_calls(
            monkeypatch, core_scoring, "intersection_fraction_batch"
        )
        second = engine.execute_batch(requests)
        assert scored == [] and kernel == []
        for before, after in zip(first, second):
            assert after.peer_scores == before.peer_scores
        self._assert_equals_sequential(network, requests, second)

    def test_publish_delta_rescores(self, workload, queries, monkeypatch):
        network = workload.network
        engine = ServeEngine(network)
        requests = self._requests(queries)
        engine.execute_batch(requests)
        peer_id = next(iter(network.peers))
        network.peers[peer_id].add_items(
            np.random.default_rng(41).random((5, network.dimensionality)),
            np.arange(910_000, 910_005),
        )
        network.publish_delta(peer_id)
        stale_before = engine.candidates.stale
        scored = _count_calls(monkeypatch, serve_cache, "level_scores")
        served = engine.execute_batch(requests)
        assert engine.candidates.stale > stale_before
        assert scored  # the mutated levels' tables were rebuilt
        self._assert_equals_sequential(network, requests, served)

    def test_each_result_owns_its_scores(self, workload, queries):
        engine = ServeEngine(workload.network)
        request = RangeRequest(query=queries[0], epsilon=0.3)
        first, second = engine.execute_batch([request, request])
        assert first.peer_scores and first.peer_scores == second.peer_scores
        assert first.peer_scores is not second.peer_scores
        first.peer_scores.clear()  # a caller's edit reaches nobody else
        assert engine.execute(request).peer_scores == second.peer_scores

    def test_knn_discovery_probes_build_no_table(
        self, workload, queries, monkeypatch
    ):
        engine = ServeEngine(workload.network)
        scored = _count_calls(monkeypatch, serve_cache, "level_scores")
        engine.execute_batch([KnnRequest(query=q, k=3) for q in queries[:4]])
        assert len(engine.candidates) > 0  # the probes went through the cache
        assert scored == []


def _fresh_network():
    """The ``workload`` network, built anew for a test that writes to it."""
    built, __ = build_markov_network(
        n_peers=8,
        items_per_peer=40,
        dimensionality=16,
        config=HyperMConfig(levels_used=3, n_clusters=4),
        rng=21,
        publish=True,
    )
    return built.network


class TestRepeatedRequests:
    """A repeated range request is joined, ranked and scanned once.

    The join and its order are memoized on the request's look-ups, and
    each peer's hits on the peer's ``items_version``; whatever changes
    under them is recomputed, and answers stay ``==`` sequential.
    """

    @staticmethod
    def _spy(monkeypatch) -> dict:
        scans: list = []
        scan = HyperMPeer.scan

        def spy(self, batch, radii):
            scans.append(self.peer_id)
            return scan(self, batch, radii)

        monkeypatch.setattr(HyperMPeer, "scan", spy)
        return {
            "joins": _count_calls(monkeypatch, serve_engine, "score_peers"),
            "ranks": _count_calls(monkeypatch, core_queries, "rank_peers"),
            "scans": scans,
        }

    def test_repeat_joins_ranks_and_scans_nothing(
        self, workload, queries, monkeypatch
    ):
        network = workload.network
        engine = ServeEngine(network)
        requests = TestScoreOncePerLookup._requests(queries)
        first = engine.execute_batch(requests)
        calls = self._spy(monkeypatch)
        second = engine.execute_batch(requests)
        assert calls == {"joins": [], "ranks": [], "scans": []}
        for before, after in zip(first, second):
            assert after.peer_scores == before.peer_scores
            assert after.peer_scores is not before.peer_scores
            assert after.items == before.items
        TestScoreOncePerLookup._assert_equals_sequential(
            network, requests, second
        )

    def test_unpublished_write_rescans_only_that_peer(self, monkeypatch):
        network = _fresh_network()
        engine = ServeEngine(network)
        query = network.peers[2].data[0]
        request = RangeRequest(query=query, epsilon=0.3, max_peers=4)
        first = engine.execute(request)
        assert 2 in first.peers_contacted
        peer = network.peers[2]
        version = peer.items_version
        peer.add_items(query[None, :], np.array([990_000]))
        assert peer.items_version > version
        calls = self._spy(monkeypatch)
        second = engine.execute(request)
        # No store moved, so the join holds; the peer's hits did not.
        assert calls == {"joins": [], "ranks": [], "scans": [2]}
        assert 990_000 in second.item_ids - first.item_ids
        peer.remove_items([990_000])
        third = engine.execute(request)
        assert third.item_ids == first.item_ids
        TestScoreOncePerLookup._assert_equals_sequential(
            network, [request], [third]
        )

    def test_publish_rejoins(self, monkeypatch):
        network = _fresh_network()
        engine = ServeEngine(network)
        request = RangeRequest(query=network.peers[1].data[0], epsilon=0.3)
        engine.execute(request)
        network.peers[1].add_items(
            np.random.default_rng(43).random((5, network.dimensionality)),
            np.arange(920_000, 920_005),
        )
        network.publish_delta(1)
        calls = self._spy(monkeypatch)
        served = engine.execute(request)
        assert len(calls["joins"]) == 1
        TestScoreOncePerLookup._assert_equals_sequential(
            network, [request], [served]
        )

    def test_memo_keeps_no_lookup_alive(
        self, workload, queries, monkeypatch
    ):
        """Evicted look-ups are freed though their memo's holder lives."""
        network = workload.network
        n_levels = len(network.levels)
        engine = ServeEngine(network, ServeConfig(cache_candidates=n_levels))
        request = RangeRequest(query=queries[0], epsilon=0.3, max_peers=3)
        first = engine.execute(request)
        held = list(engine.candidates._data.values())
        anchor = held[-1]
        assert anchor.joined.matches(held, network.config.aggregation)
        others = [weakref.ref(found) for found in held[:-1]]
        del held
        # Another query's look-ups fill the cache: the first request's
        # are evicted, and only the anchor is still referenced (here).
        engine.execute(RangeRequest(query=queries[1], epsilon=0.3))
        assert anchor.joined is not None
        assert [ref() for ref in others] == [None] * (n_levels - 1)
        calls = self._spy(monkeypatch)
        again = engine.execute(request)
        assert len(calls["joins"]) == 1  # re-fetched look-ups: a new join
        assert again.peer_scores == first.peer_scores
        assert again.item_ids == first.item_ids


class TestRefreshAfterAWrite:
    """A one-peer ``publish_delta`` re-scores and re-scans what it touched.

    Its stale look-ups are patched from their priors: the Eq. 1 kernel
    sees only rows the write stamped (all the writer's) or whose
    distance bits moved, a re-join keeps the other peers' scan hits,
    and the answers stay ``==`` sequential.
    """

    WRITER = 1

    @classmethod
    def _write(cls, network, seed: int) -> None:
        network.peers[cls.WRITER].add_items(
            np.random.default_rng(seed).random((5, network.dimensionality)),
            np.arange(930_000, 930_005),
        )
        network.publish_delta(cls.WRITER)

    def test_kernel_sees_only_the_writers_rows_and_moved_distances(
        self, queries, monkeypatch
    ):
        network = _fresh_network()
        engine = ServeEngine(network)
        requests = TestScoreOncePerLookup._requests(queries)
        engine.execute_batch(requests)
        before = {
            ck: (found.candidates.generation, found.table()._kept)
            for ck, found in engine.candidates._data.items()
        }
        self._write(network, 44)
        kernel = _count_calls(
            monkeypatch, core_scoring, "intersection_fraction_batch"
        )
        served = engine.execute_batch(requests)
        allowed = scored = 0
        for ck, found in engine.candidates._data.items():
            generation, (__, old_rows, old_dists, ___) = before[ck]
            __, rows, dists, ___ = found.table()._kept
            store = found.candidates.store
            stamped = store.stamps_of(rows) > generation
            assert np.isin(
                rows[stamped], store.rows_for_peer(self.WRITER)
            ).all()
            at = np.minimum(
                np.searchsorted(old_rows, rows), old_rows.size - 1
            )
            moved = (old_rows[at] != rows) | (
                old_dists[at].view(np.int64) != dists.view(np.int64)
            )
            allowed += int(np.count_nonzero(stamped | moved))
            scored += rows.size
        assert sum(args[0].size for args in kernel) <= allowed < scored
        TestScoreOncePerLookup._assert_equals_sequential(
            network, requests, served
        )

    def test_only_the_writer_is_rescanned(self, queries, monkeypatch):
        network = _fresh_network()
        engine = ServeEngine(network)
        # No contact budget: every ranked peer is contacted, and only
        # the writer's spheres moved, so the ranked peers stay the same.
        requests = [
            RangeRequest(query=query, epsilon=0.3)
            for query in [network.peers[self.WRITER].data[0], *queries[:3]]
        ]
        first = engine.execute_batch(requests)
        assert self.WRITER in first[0].peers_contacted
        assert len({p for r in first for p in r.peers_contacted}) > 1
        self._write(network, 45)
        calls = TestRepeatedRequests._spy(monkeypatch)
        served = engine.execute_batch(requests)
        assert calls["joins"]  # the write re-joined the writer's requests
        assert set(calls["scans"]) == {self.WRITER}
        TestScoreOncePerLookup._assert_equals_sequential(
            network, requests, served
        )


class TestKernelCallsPerBatch:
    """A batch pays each kernel once, not once per request: Eq. 1 once
    per (level, radius) over its misses, and one scan per peer it may
    contact — with answers ``==`` sequential ``range_query``."""

    def test_misses_score_in_one_call_per_level_and_radius(
        self, workload, queries, monkeypatch
    ):
        network = workload.network
        engine = ServeEngine(network)
        requests = [
            RangeRequest(query=q, epsilon=epsilon, max_peers=3)
            for epsilon in (0.3, 0.2) for q in queries
        ]
        kernel = _count_calls(
            monkeypatch, core_scoring, "intersection_fraction_batch"
        )
        served = engine.execute_batch(requests)
        lookups = {
            (level, radius)
            for request in requests
            for level, (__, radius) in level_plan(
                network.dimensionality, network.levels,
                request.query, request.epsilon,
            ).items()
        }
        assert len(kernel) == len(lookups) == 2 * len(network.levels)
        assert sorted(args[1] for args in kernel) == sorted(
            radius for __, radius in lookups
        )
        TestScoreOncePerLookup._assert_equals_sequential(
            network, requests, served
        )

    def test_stacked_scans_count_in_store_health(self, workload, queries):
        """A batch's stacked look-up scans every row once per missed
        look-up, and ``health()`` says so (it used to read 0 and 0)."""
        network = workload.network
        engine = ServeEngine(network)
        stores = [network.overlays[level].level_store
                  for level in network.levels]
        before = [store.health() for store in stores]
        engine.execute_batch([
            RangeRequest(query=q, epsilon=0.3, max_peers=3)
            for q in queries[:4]
        ])
        for store, health in zip(stores, before):
            after = store.health()
            assert after["mask_queries"] - health["mask_queries"] == 4
            assert (
                after["rows_scanned"] - health["rows_scanned"]
                == 4 * store.n_rows
            )

    def test_one_scan_per_contacted_peer(
        self, workload, queries, monkeypatch
    ):
        network = workload.network
        engine = ServeEngine(network)
        requests = [
            RangeRequest(query=q, epsilon=0.3, max_peers=3) for q in queries
        ]
        requests += requests[:4]  # repeats ride the same scan column
        scans: list = []
        scan = HyperMPeer.scan

        def spy(self, batch, radii):
            scans.append((self.peer_id, batch.shape[0]))
            return scan(self, batch, radii)

        monkeypatch.setattr(HyperMPeer, "scan", spy)
        searched = _count_calls(monkeypatch, HyperMPeer, "range_search")
        served = engine.execute_batch(requests)
        assert searched == []
        ranked: dict = {}
        for index, result in enumerate(served):
            for peer, __ in rank_peers(result.peer_scores)[:3]:
                ranked.setdefault(peer, set()).add(index % len(queries))
        contacted = {
            peer for result in served for peer in result.peers_contacted
        }
        assert contacted and contacted <= set(ranked)
        assert sorted(scans) == sorted(
            (peer, len(columns)) for peer, columns in ranked.items()
        )
        TestScoreOncePerLookup._assert_equals_sequential(
            network, requests, served
        )


def _twin_batches(twin: str, fault_plan, monkeypatch) -> dict:
    """One fresh network's batch results, ledgers and flight edges.

    ``twin`` is how contacted peers search: ``"grouped"`` as shipped,
    ``"looped"`` with every grouped scan replaced by a loop of
    single-query scans, ``"per-contact"`` with no batch scan at all —
    each reached peer runs ``range_search`` inside the retrieval loop.
    """
    built, __ = build_markov_network(
        n_peers=8,
        items_per_peer=40,
        dimensionality=16,
        config=HyperMConfig(levels_used=3, n_clusters=4),
        rng=21,
        publish=True,
    )
    network = built.network
    if fault_plan is not None:
        network.fabric.install_faults(fault_plan)
    batch = sample_queries(built.data, 8, rng=np.random.default_rng(22))
    requests = [
        RangeRequest(query=q, epsilon=epsilon, max_peers=budget)
        for epsilon, budget in ((0.3, 3), (0.35, None))
        for q in batch
    ]
    scan = HyperMPeer.scan

    def looped(self, queries, radii):
        return [
            scan(self, query[None, :], radii[column:column + 1])[0]
            for column, query in enumerate(queries)
        ]

    flight = FlightRecorder(capacity=100_000, clock=lambda: 0.0)
    with monkeypatch.context() as patch, run_context(flight=flight):
        if twin == "looped":
            patch.setattr(HyperMPeer, "scan", looped)
        if twin == "per-contact":
            patch.setattr(
                ServeEngine, "_search",
                lambda self, requests, scored: defaultdict(lambda: None),
            )
        engine = ServeEngine(network)
        served = engine.execute_batch(requests) + engine.execute_batch(
            requests[::-1]
        )
    fabric = network.fabric
    return {
        "results": [
            (
                [(i.item_id, i.peer_id, i.distance) for i in result.items],
                result.peer_scores,
                result.retrieval_messages,
                result.peers_contacted,
                result.failed_contacts,
                result.confidence,
            )
            for result in served
        ],
        "by_kind": fabric.metrics.snapshot(),
        "load": {
            node: row.to_record() for node, row in fabric.load.per_node.items()
        },
        "energy": fabric.energy.per_node,
        "edges": [edge.to_record() for edge in flight.edges],
    }


class TestGroupedScanTraffic:
    """Scanning each peer once per batch moves no frame: the retrieval
    loop sends what it sent when every contact searched on its own."""

    @pytest.mark.parametrize(
        "fault_plan", [None, FaultPlan(loss=0.1, duplication=0.02, seed=3)],
        ids=["clean", "lossy"],
    )
    def test_twins_charge_and_answer_identically(
        self, fault_plan, monkeypatch
    ):
        grouped = _twin_batches("grouped", fault_plan, monkeypatch)
        assert grouped["edges"] and grouped["results"]
        if fault_plan is not None:  # the plan fired on retrieval frames
            assert {"dropped", "duplicate"} <= {
                edge["status"] for edge in grouped["edges"]
            }
        for twin in ("looped", "per-contact"):
            other = _twin_batches(twin, fault_plan, monkeypatch)
            for key in ("results", "by_kind", "load", "energy", "edges"):
                assert grouped[key] == other[key], (twin, key)


class TestKnnParity:
    def test_matches_sequential_without_early_termination(
        self, workload, queries
    ):
        network = workload.network
        engine = ServeEngine(network)
        for query in queries[:4]:
            served = engine.execute(
                KnnRequest(query=query, k=4, early_termination=False)
            )
            sequential = network.knn_query(query, 4)
            assert [i.item_id for i in served.items] == [
                i.item_id for i in sequential.items
            ]
            assert served.peers_contacted == sequential.peers_contacted
            assert served.epsilon_per_level == pytest.approx(
                sequential.epsilon_per_level
            )

    def test_early_termination_keeps_top_k(self, workload, queries):
        network = workload.network
        engine = ServeEngine(network)
        k = 4
        for query in queries:
            terminated = engine.execute(
                KnnRequest(query=query, k=k, early_termination=True)
            )
            full = network.knn_query(query, k)
            got = [i.distance for i in terminated.items[:k]]
            want = [i.distance for i in full.items[:k]]
            assert got == pytest.approx(want, abs=1e-9)
        # The skip counters only move when termination actually fires,
        # but they must never go negative or desync from each other.
        snap = engine.snapshot()
        assert snap["knn_early_stops"] >= 0
        assert (snap["knn_peers_skipped"] == 0) == (
            snap["knn_early_stops"] == 0
        )

    def test_rejects_bad_k_and_c(self, workload, queries):
        engine = ServeEngine(workload.network)
        with pytest.raises(QueryError):
            engine.execute(KnnRequest(query=queries[0], k=0))
        with pytest.raises(QueryError):
            engine.execute(KnnRequest(query=queries[0], k=2, c=0.0))

    def test_bad_k_refused_before_any_frame(self, workload, queries):
        network = workload.network
        engine = ServeEngine(network)
        sent = network.fabric.metrics.snapshot()
        for bad in ({"k": 2.5}, {"k": True}, {"k": 2, "c": float("nan")}):
            with pytest.raises(QueryError):
                engine.execute_batch([
                    RangeRequest(query=queries[1], epsilon=0.3),
                    KnnRequest(query=queries[0], **bad),
                ])
        assert network.fabric.metrics.snapshot() == sent


class TestAsyncLayer:
    @pytest.mark.parametrize("rate", [float("nan"), float("inf"), 0.0, -1.0])
    def test_open_loop_refuses_a_meaningless_rate(self, workload, queries,
                                                  rate):
        requests = [RangeRequest(query=queries[0], epsilon=0.2)]
        with pytest.raises(ValidationError, match="rate must be"):
            run_open_loop(ServeEngine(workload.network), requests, rate=rate)

    def test_submit_before_start_raises(self, workload, queries):
        engine = ServeEngine(workload.network)

        async def scenario():
            with pytest.raises(ServeError):
                await engine.submit(
                    RangeRequest(query=queries[0], epsilon=0.2)
                )

        asyncio.run(scenario())

    def test_double_start_raises(self, workload):
        engine = ServeEngine(workload.network)

        async def scenario():
            await engine.start()
            with pytest.raises(ServeError):
                await engine.start()
            await engine.stop()

        asyncio.run(scenario())

    def test_coalesces_concurrent_submissions(self, workload, queries):
        engine = ServeEngine(
            workload.network,
            ServeConfig(max_inflight=1, max_batch=8, batch_window=0.05),
        )

        async def scenario():
            await engine.start()
            responses = await asyncio.gather(*[
                engine.submit(RangeRequest(query=q, epsilon=0.3))
                for q in queries
            ])
            await engine.stop()
            return responses

        responses = asyncio.run(scenario())
        assert all(r.status == "ok" for r in responses)
        assert all(r.result is not None for r in responses)
        assert max(r.batch_size for r in responses) > 1
        assert all(r.latency >= 0.0 for r in responses)

    def test_sheds_past_the_queue_bound(self, workload, queries):
        engine = ServeEngine(
            workload.network,
            ServeConfig(max_queue=2, max_inflight=1, batch_window=0.01),
        )

        async def scenario():
            await engine.start()
            responses = await asyncio.gather(*[
                engine.submit(RangeRequest(query=queries[i % 8], epsilon=0.3))
                for i in range(24)
            ])
            await engine.stop()
            return responses

        responses = asyncio.run(scenario())
        shed = [r for r in responses if r.status == "shed"]
        ok = [r for r in responses if r.status == "ok"]
        assert shed and ok
        assert all(r.reason == "queue_full" for r in shed)
        assert all(r.result is None for r in shed)
        snap = engine.snapshot()
        assert snap["shed"] == len(shed)
        assert snap["admitted"] == len(ok)
        assert snap["waiting"] == 0

    def test_batch_errors_reach_every_waiter(self, workload, queries):
        engine = ServeEngine(
            workload.network,
            ServeConfig(max_inflight=1, max_batch=4, batch_window=0.05),
        )
        bad = RangeRequest(query=np.ones(3), epsilon=0.1)  # wrong dim

        async def scenario():
            await engine.start()
            results = await asyncio.gather(
                engine.submit(RangeRequest(query=queries[0], epsilon=0.2)),
                engine.submit(bad),
                return_exceptions=True,
            )
            await engine.stop()
            return results

        results = asyncio.run(scenario())
        # The bad request poisons its whole coalesced batch; both waiters
        # see the validation error rather than hanging forever.
        assert all(isinstance(r, ValidationError) for r in results)

    def test_stop_without_start_is_a_no_op(self, workload):
        engine = ServeEngine(workload.network)
        asyncio.run(engine.stop())


class TestSnapshot:
    def test_counters_track_batches(self, workload, queries):
        engine = ServeEngine(workload.network)
        engine.execute_batch([
            RangeRequest(query=q, epsilon=0.2) for q in queries[:3]
        ])
        snap = engine.snapshot()
        assert snap["batches"] == 1
        assert snap["served"] == 3
        assert snap["candidate_cache"]["capacity"] == 256
        assert snap["translation_cache"]["size"] >= 1
        assert set(snap["translation_cache"]) == {
            "hits", "misses", "size", "capacity"
        }

    def test_repeated_query_registers_a_translation_hit(
        self, workload, queries
    ):
        engine = ServeEngine(workload.network)
        request = RangeRequest(query=queries[0], epsilon=0.2)
        engine.execute(request)
        before = engine.snapshot()["translation_cache"]
        engine.execute(request)
        after = engine.snapshot()["translation_cache"]
        assert after["hits"] == before["hits"] + 1
        assert after["misses"] == before["misses"]


class TestInjectableClock:
    def test_timed_uses_the_ambient_metrics_clock(self):
        from repro.evaluation.serving import _timed
        from repro.obs.registry import MetricsRegistry
        from repro.runtime import run_context

        ticks = iter([10.0, 10.25])
        with run_context(metrics=MetricsRegistry(clock=lambda: next(ticks))):
            elapsed = _timed(lambda: None)
        assert elapsed == 0.25

    def test_explicit_clock_overrides_the_registry(self):
        from repro.evaluation.serving import _timed

        ticks = iter([0.0, 2.0])
        assert _timed(lambda: None, clock=lambda: next(ticks)) == 2.0
