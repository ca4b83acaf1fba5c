"""One query pipeline, two candidate sources.

The index phase (`plan → candidates → score → aggregate`) and the k-NN
driver are written once in ``repro.core``; what varies is where the
candidate spheres come from — :class:`repro.core.queries.RoutedSource`
(the paper's overlay walk) or :class:`repro.serve.batch.StoreSource`
(the co-located, generation-cached level stores). These tests drive the
shared functions over both sources, on CAN and on BATON,
and pin that the source changes the cost and nothing else.
"""

import sys

import numpy as np
import pytest

from repro.clustering.spheres import ClusterSphere
from repro.core import knn as knn_driver
from repro.core import queries as pipeline
from repro.core.baselines import CentralizedIndex
from repro.core.knn import run_knn
from repro.core.network import HyperMConfig
from repro.core.queries import (
    RoutedSource,
    finish_range,
    index_phase,
    level_plan,
    resolve_origin,
)
from repro.evaluation.workloads import build_markov_network, sample_queries
from repro.exceptions import EmptyNetworkError, QueryError
from repro.index.store import CandidateSet
from repro.overlay import BatonNetwork, CANNetwork
from repro.serve import CandidateCache, StoreSource

EPSILON = 0.3
K = 8


@pytest.fixture(
    scope="module", params=[CANNetwork, BatonNetwork], ids=["can", "baton"]
)
def workload(request):
    built, __ = build_markov_network(
        n_peers=10,
        items_per_peer=40,
        dimensionality=16,
        config=HyperMConfig(levels_used=3, n_clusters=4),
        rng=21,
        publish=True,
        overlay_factory=request.param,
    )
    return built


@pytest.fixture(scope="module")
def queries(workload):
    return sample_queries(workload.data, 6, rng=np.random.default_rng(8))


def _sources(network):
    """``[(name, source)]``: the default routed walk, then the store."""
    return [
        ("routed", None),
        ("store", StoreSource(network, CandidateCache(64))),
    ]


def _same_scores(left: dict, right: dict) -> bool:
    return left.keys() == right.keys() and all(
        abs(left[peer] - right[peer]) <= 1e-9 for peer in left
    )


def _spy_on_the_join(monkeypatch):
    """``(sorts, at_join)``: every ``np.unique`` by calling module, and at
    each cross-level join scoring's count so far plus, per table, whether
    it arrived ungrouped."""
    sorts, at_join = [], []
    real_unique, real_join = np.unique, pipeline.aggregate_scores

    def unique(*args, **kwargs):
        sorts.append(sys._getframe(1).f_globals["__name__"])
        return real_unique(*args, **kwargs)

    def join(per_level, *, policy):
        at_join.append((
            sorts.count("repro.core.scoring"),
            [table._peers is None for table in per_level.values()],
        ))
        return real_join(per_level, policy=policy)

    monkeypatch.setattr(np, "unique", unique)
    monkeypatch.setattr(pipeline, "aggregate_scores", join)
    return sorts, at_join


class TestIndexPhase:
    def test_identical_peer_scores(self, workload, queries):
        network = workload.network
        origin = resolve_origin(network, None)
        for query in queries:
            routed, routed_hops = index_phase(
                network, query, EPSILON, origin_peer=origin
            )
            stored, stored_hops = index_phase(
                network, query, EPSILON, origin_peer=origin,
                source=StoreSource(network),
            )
            assert routed, "query ball should reach some peer"
            assert _same_scores(routed, stored)
            # Only the co-located source is free of overlay routing.
            assert stored_hops == 0
            assert routed_hops > 0

    def test_untraced_routed_path_defers_the_peer_sort(
        self, workload, queries, monkeypatch
    ):
        """Under the null recorder no span attribute reads ``len(table)``:
        the tables reach the join ungrouped, scoring having spent not one
        ``np.unique`` (the walks dedupe their rows with one each)."""
        sorts, at_join = _spy_on_the_join(monkeypatch)
        network = workload.network
        scores, __ = index_phase(
            network, queries[0], EPSILON,
            origin_peer=resolve_origin(network, None),
        )
        assert scores
        assert at_join == [(0, [True] * len(network.levels))]
        assert "repro.core.scoring" in sorts  # the spy sees the join's sorts

    def test_info_accounting_is_source_independent(self, workload, queries):
        network = workload.network
        origin = resolve_origin(network, None)
        for __, source in _sources(network):
            info: dict = {}
            index_phase(
                network, queries[0], EPSILON, origin_peer=origin,
                info=info, source=source,
            )
            assert info == {
                "levels_total": len(network.levels),
                "levels_answered": len(network.levels),
                "index_attempts": len(network.levels),
            }

    def test_range_items_match_the_centralized_index(self, workload, queries):
        """Theorem 4.1 on either source: contact all, dismiss nothing."""
        network = workload.network
        origin = resolve_origin(network, None)
        truth = CentralizedIndex.from_network(network)
        for query in queries:
            expected = truth.range_search(query, EPSILON)
            for name, source in _sources(network):
                scores, hops = index_phase(
                    network, query, EPSILON, origin_peer=origin,
                    source=source,
                )
                result = finish_range(
                    network, query, EPSILON, scores,
                    origin_peer=origin, max_peers=None, index_hops=hops,
                )
                assert result.item_ids == expected, name
                assert (result.index_hops == 0) == (name == "store")
                assert result.confidence == 1.0


class TestKnnDriver:
    def _run(self, network, query, source, *, early_stop, k=K):
        origin = resolve_origin(network, None)
        plan = level_plan(network.dimensionality, network.levels, query)
        if source is None:
            source = RoutedSource(network, origin)
        return run_knn(
            network, query, k, plan, source,
            origin=origin, early_stop=early_stop,
        )

    def test_identical_items_without_early_stop(self, workload, queries):
        network = workload.network
        for query in queries:
            routed, routed_skipped = self._run(
                network, query, None, early_stop=False
            )
            stored, stored_skipped = self._run(
                network, query, StoreSource(network), early_stop=False
            )
            assert routed_skipped == stored_skipped == 0
            assert [i.item_id for i in routed.items] == [
                i.item_id for i in stored.items
            ]
            assert routed.peers_contacted == stored.peers_contacted
            assert routed.epsilon_per_level == stored.epsilon_per_level
            assert _same_scores(routed.peer_scores, stored.peer_scores)
            assert routed.retrieval_messages == stored.retrieval_messages
            assert stored.index_hops == 0
            assert routed.index_hops > 0

    @pytest.mark.parametrize("k", [1, K])
    def test_early_stop_keeps_top_k_distances(self, workload, queries, k):
        network = workload.network
        for query in queries:
            full, __ = self._run(network, query, None, early_stop=False, k=k)
            want = [item.distance for item in full.items[:k]]
            for name, source in _sources(network):
                cut, skipped = self._run(
                    network, query, source, early_stop=True, k=k
                )
                got = [item.distance for item in cut.items[:k]]
                assert got == pytest.approx(want, abs=1e-9), name
                # Stopping early only ever drops the tail of the plan.
                assert len(cut.peers_contacted) + skipped == len(
                    full.peers_contacted
                )
                assert cut.peers_contacted == full.peers_contacted[
                    :len(cut.peers_contacted)
                ]
                assert cut.retrieval_messages <= full.retrieval_messages

    def test_knn_query_is_the_routed_driver(self, workload, queries):
        network = workload.network
        for query in queries[:2]:
            public = network.knn_query(query, K)
            driven, __ = self._run(network, query, None, early_stop=False)
            assert public.item_ids == driven.item_ids
            assert public.index_hops == driven.index_hops


    def test_untraced_knn_query_defers_the_peer_sort(
        self, workload, queries, monkeypatch
    ):
        """``run_knn`` reads ``len(table)`` for its span attributes only
        when traced, so k-NN's tables reach the join ungrouped too (and
        take the counting semi-join instead of sorting every level)."""
        sorts, at_join = _spy_on_the_join(monkeypatch)
        network = workload.network
        result = network.knn_query(queries[0], K)
        assert result.peer_scores
        assert at_join == [(0, [True] * len(network.levels))]
        assert "repro.core.scoring" in sorts  # the spy sees the join's sorts

    def test_discovery_reads_columns_and_builds_no_sphere_objects(
        self, workload, queries, monkeypatch
    ):
        """Work counts of one routed ``knn_query``: per widening probe one
        ``columns()`` read and one distance pass, shared by the Eq. 8
        stopping test and its inversion; the final ``ε*`` look-up goes to
        scoring unread; no row is wrapped in a sphere object."""
        probes, gathers, passes, built = [], [], [], []
        real_probe = RoutedSource.probe
        real_columns = CandidateSet.columns
        real_distances = knn_driver._center_distances
        real_post_init = ClusterSphere.__post_init__

        def probe(self, index, level, key, eps):
            probes.append((index, eps))
            return real_probe(self, index, level, key, eps)

        def columns(self):
            gathers.append(sys._getframe(1).f_globals["__name__"])
            return real_columns(self)

        def distances(keys, center):
            passes.append(len(keys))
            return real_distances(keys, center)

        def post_init(self):
            built.append(self)
            real_post_init(self)

        monkeypatch.setattr(RoutedSource, "probe", probe)
        monkeypatch.setattr(CandidateSet, "columns", columns)
        monkeypatch.setattr(knn_driver, "_center_distances", distances)
        monkeypatch.setattr(ClusterSphere, "__post_init__", post_init)
        network = workload.network
        result = network.knn_query(queries[0], K)
        assert result.items
        # A probe narrower than its level's previous one is the final
        # look-up at the inverted radius; every other probe widens.
        final = sum(
            index == previous_index and eps < previous_eps
            for (previous_index, previous_eps), (index, eps)
            in zip(probes, probes[1:])
        )
        widening = len(probes) - final
        assert final > 0 and widening >= len(network.levels)
        assert len(passes) == widening
        assert gathers.count("repro.core.knn") == widening
        assert built == []


class TestResolveOrigin:
    def test_defaults_to_first_online_peer(self, workload):
        network = workload.network
        assert resolve_origin(network, None) == next(iter(network.peers))
        assert resolve_origin(network, 3) == 3

    def test_rejects_unknown_and_departed_origins(self):
        built, __ = build_markov_network(
            n_peers=3, items_per_peer=10, dimensionality=8,
            config=HyperMConfig(levels_used=2, n_clusters=2), rng=2,
        )
        network = built.network
        with pytest.raises(QueryError, match="unknown origin"):
            resolve_origin(network, 99)
        network.depart(0)
        with pytest.raises(QueryError, match="has left the network"):
            resolve_origin(network, 0)
        assert resolve_origin(network, None) == 1
        network.depart(1)
        network.depart(2)
        with pytest.raises(EmptyNetworkError):
            resolve_origin(network, None)
