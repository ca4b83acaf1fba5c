"""The five workloads: inputs from a seed, set-up, measured passes, oracles.

Every workload drives the public API of ``src/repro`` from this one
process. Inputs are NumPy arrays made from ``--seed`` before anything is
timed; ``src/`` never sees the seed of the data it is handed. A *pass*
is a fixed block of operations on fresh inputs: the end-to-end run
repeats passes until ``--seconds`` have gone by, the traced run does a
fixed number of them so that summed self times compare across commits.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import os
from types import SimpleNamespace

import numpy as np

from repro.core import scoring
from repro.core.baselines import CentralizedIndex
from repro.core.network import HyperMConfig, HyperMNetwork
from repro.datasets.histograms import generate_histograms
from repro.datasets.partition import partition_among_peers
from repro.engine import EngineConfig, create_engine, gather_block, store_mask
from repro.evaluation.workloads import sample_queries
from repro.net.network import Network
from repro.overlay.can import build_grid_can, bulk_publish
from repro.serve import KnnRequest, RangeRequest, ServeConfig, ServeEngine
from repro.utils.rng import ensure_rng
from repro.wavelets import bounds, multiresolution

#: The paper's operating point (§6): 4 published levels, 10 clusters per
#: peer per level, 128-bin histograms, ~200 items per peer.
N_BINS = 128
VIEWS = 32
CONFIG = HyperMConfig(levels_used=4, n_clusters=10)
EPSILON = 0.12
MAX_PEERS = 6
K = 10
BATCH = 16
ORACLE_QUERIES = 40
#: Open-loop rates (req/s); the first is the one `serve.open300_*` names.
OPEN_RATES = (300, 450)
OPEN_P95_LIMIT_MS = 50.0


#: The published corpus and the overlay topology are the same in every
#: run; ``--seed`` draws what is asked of them (queries, origins, the hot
#: set, the writes). Ten seeds then spread by the machine and the query
#: sample, not by how one 64-peer CAN happened to split its zones (that
#: alone moved the routed median by 12 % from seed to seed).
CORPUS_SEED = 0


def _rng(seed: int, stream: int) -> np.random.Generator:
    """Independent generator per (seed, purpose); passes use 100 + index."""
    return np.random.default_rng([seed, stream])


class _Workload:
    """Hooks the runner calls that a workload may leave empty."""

    #: Set-ups per end-to-end run; ``setup_s`` is their median.
    setups = 3
    #: True when measured passes change what is published.
    mutates = False
    #: A ``ServeEngine`` or an execution ``Engine`` whose snapshot counts.
    engine = None

    def publish(self, run) -> None:
        """Publication measured apart from set-up (routed run only)."""

    def extras(self, run) -> None:
        """Traced run only: further ops measured under the wrappers."""

    def untraced(self, run) -> None:
        """Traced run only: measurements taken with the wrappers off."""


class _HistogramWorkload(_Workload):
    """Inputs and network construction shared by the routed and serve runs."""

    def __init__(self, seed: int, smoke: bool):
        self.seed = seed
        n_peers, per_peer = (16, 64) if smoke else (64, 200)
        dataset = generate_histograms(
            n_peers * per_peer // VIEWS, VIEWS, N_BINS, rng=_rng(CORPUS_SEED, 0)
        )
        self.data = dataset.data
        self.parts = partition_among_peers(
            self.data, n_peers,
            item_ids=np.arange(self.data.shape[0], dtype=np.int64),
            rng=_rng(CORPUS_SEED, 1),
        )
        self.network = None
        self._truth_index = None

    def _build_network(self) -> HyperMNetwork:
        network = HyperMNetwork(N_BINS, CONFIG, rng=CORPUS_SEED)
        for data, item_ids in self.parts:
            network.add_peer(data, item_ids)
        return network

    def _queries(self, stream: int, count: int) -> np.ndarray:
        """Dataset items + N(0, 0.01) jitter: distinct, so no LRU hits."""
        return sample_queries(
            self.data, count, rng=_rng(self.seed, stream), jitter=0.01
        )

    def teardown(self, run) -> None:
        self.network = None
        self._truth_index = None

    def level_stores(self) -> list:
        return [
            self.network.overlays[level].level_store
            for level in self.network.levels
        ]

    def fabric(self):
        return self.network.fabric


class SessionRouted(_HistogramWorkload):
    """Routed protocol end to end: joins, routed inserts, multicast, retrieval."""

    name = "session-routed"
    p90_metric = "core.range_ms_p90"
    #: A set-up is 0.14 s of joins and its 64 publishes are the only
    #: ``publish_ms_p50`` samples: over 3 set-ups both spread 10-12 %
    #: across ten seeds, over 5 they hold under a third of their bound.
    setups = 5

    def __init__(self, seed, smoke):
        super().__init__(seed, smoke)
        self.pass_queries = 50 if smoke else 150
        self.knn_queries = 4 if smoke else 32

    def setup(self, run) -> None:
        with run.probe.tracing(run.setup_rec):
            self.network = self._build_network()

    def publish(self, run) -> None:
        for peer_id in self.network.peers:
            report = run.timed("publish", self.network.publish_peer, peer_id)
            if report is not None:
                run.counts["publish_bytes"] += report.bytes_sent
                run.counts["publish_items"] += report.items_published

    def run_pass(self, run, index: int) -> int:
        queries = self._queries(100 + index, self.pass_queries)
        # Any peer may ask: one fixed origin would tie every latency to
        # where that peer's zones happened to land.
        origins = _rng(self.seed, 1000 + index).integers(
            0, self.network.n_peers, len(queries)
        )
        results = [
            run.timed(
                "query", self.network.range_query, query, EPSILON,
                max_peers=MAX_PEERS, origin_peer=int(origin),
            )
            for query, origin in zip(queries, origins)
        ]
        for query, result in zip(queries, results):
            if result is None:
                continue
            run.counts["queries"] += 1
            run.counts["range_msgs"] += (
                result.index_hops + result.retrieval_messages
            )
            run.counts["peers_scored"] += len(result.peer_scores)
            run.counts["peers_contacted"] += len(result.peers_contacted)
            if run.probe.traced:
                truth = self._truth().range_search(query, EPSILON)
                if truth:
                    run.counts["recall_queries"] += 1
                    run.counts["recall_sum"] += (
                        len(result.item_ids & truth) / len(truth)
                    )
        return len(queries)

    def _truth(self) -> CentralizedIndex:
        if self._truth_index is None:
            self._truth_index = CentralizedIndex.from_network(self.network)
        return self._truth_index

    def extras(self, run) -> None:
        for query in self._queries(98, self.knn_queries):
            run.timed("knn", self.network.knn_query, query, K)

    def oracles(self, run) -> None:
        """Theorem 4.1: contacting every scored peer loses no answer."""
        truth = self._truth()
        for query in self._queries(97, ORACLE_QUERIES):
            result = self.network.range_query(query, EPSILON)
            run.check(
                result.item_ids == truth.range_search(query, EPSILON),
                "routed range query differs from the centralized index",
            )


class Serve(_HistogramWorkload):
    """Batched serving over a co-located index; ``churn`` adds writes."""

    def __init__(self, seed, smoke, *, churn: bool):
        super().__init__(seed, smoke)
        self.name = "serve-churn" if churn else "serve-hot"
        self.p90_metric = "serve.batch_ms_p90"
        self.mutates = churn
        self.pass_requests = 128 if smoke else 384
        self.knn_requests = 16 if smoke else 96
        self.open_requests = 60 if smoke else 1200
        rng = _rng(seed, 2)
        #: 48 distinct queries x 4 levels = 192 candidate keys, under the
        #: engine's 256-entry candidate cache: the working set fits.
        self.distinct = self.data[rng.integers(0, self.data.shape[0], 48)]
        weights = 1.0 / np.arange(1, 49, dtype=np.float64)
        self.weights = weights / weights.sum()
        self.engine = None
        self.writes = 0
        self.next_item_id = int(self.data.shape[0])

    def setup(self, run) -> None:
        with run.probe.tracing(run.setup_rec):
            self.network = self._build_network()
            for peer_id in self.network.peers:
                run.timed("publish", self.network.publish_peer, peer_id)
            self.engine = ServeEngine(self.network, ServeConfig())
        self.writes = 0
        self.next_item_id = int(self.data.shape[0])

    def teardown(self, run) -> None:
        super().teardown(run)
        self.engine = None

    def _requests(self, stream: int, count: int, **kwargs) -> list:
        picks = _rng(self.seed, stream).choice(48, size=count, p=self.weights)
        kwargs.setdefault("max_peers", MAX_PEERS)
        return [
            RangeRequest(query=self.distinct[pick], epsilon=EPSILON, **kwargs)
            for pick in picks
        ]

    def _write(self, run) -> None:
        """One peer adds 20 jittered views of 2 rows, drops 10, republishes."""
        network = self.network
        peer = network.peers[self.writes % network.n_peers]
        # The write schedule belongs to the deployment, not to the draw.
        rng = _rng(CORPUS_SEED, 10_000 + self.writes)
        self.writes += 1
        rows = peer.data[rng.integers(0, peer.n_items, 2)]
        views = np.clip(
            np.repeat(rows, 10, axis=0) + rng.normal(0.0, 0.01, (20, N_BINS)),
            0.0, 1.0,
        )
        peer.add_items(
            views, np.arange(self.next_item_id, self.next_item_id + 20)
        )
        self.next_item_id += 20
        published = peer.item_ids[:peer.unpublished_from]
        peer.remove_items(rng.choice(published, size=10, replace=False))
        report = run.timed("write", network.publish_delta, peer.peer_id)
        if report is not None:
            run.counts["delta_ops"] += 1
            run.counts["delta_bytes"] += report.bytes_sent

    def run_pass(self, run, index: int) -> int:
        requests = self._requests(100 + index, self.pass_requests)
        for number, start in enumerate(range(0, len(requests), BATCH)):
            results = run.timed(
                "query", self.engine.execute_batch,
                requests[start:start + BATCH],
            )
            for result in results or ():
                run.counts["queries"] += 1
                run.counts["peers_scored"] += len(result.peer_scores)
                run.counts["peers_contacted"] += len(result.peers_contacted)
            if self.mutates and number % 2 == 1:
                self._write(run)
        return len(requests)

    def extras(self, run) -> None:
        if self.mutates:
            return
        picks = _rng(self.seed, 98).choice(
            48, size=self.knn_requests, p=self.weights
        )
        requests = [KnnRequest(query=self.distinct[p], k=K) for p in picks]
        for start in range(0, len(requests), BATCH):
            run.timed(
                "knn", self.engine.execute_batch, requests[start:start + BATCH]
            )

    def untraced(self, run) -> None:
        """Open loop at fixed rates.

        A shed request is the admission layer answering as designed, and
        whether 450 req/s overloads the engine is up to the host (this
        box serves 380-630 req/s from one hour to the next). So a shed
        is no failed op: it shows as ``serve.shed`` and it disqualifies
        its rate from ``serve.open_max_rate_ok``.
        """
        if self.mutates:
            return
        for rate in OPEN_RATES:
            run.open_loop[rate] = asyncio.run(_open_loop(
                self.engine, self._requests(96, self.open_requests), rate
            ))
            run.attempted += self.open_requests

    def oracles(self, run) -> None:
        truth = CentralizedIndex.from_network(self.network)
        exhaustive = self._requests(97, ORACLE_QUERIES, max_peers=None)
        bounded = self._requests(95, 4 * BATCH)
        for start in range(0, len(exhaustive), BATCH):
            batch = exhaustive[start:start + BATCH]
            for request, result in zip(batch, self.engine.execute_batch(batch)):
                run.check(
                    result.item_ids
                    == truth.range_search(request.query, EPSILON),
                    "served range query differs from the centralized index",
                )
        for start in range(0, len(bounded), BATCH):
            batch = bounded[start:start + BATCH]
            for request, result in zip(batch, self.engine.execute_batch(batch)):
                sequential = self.network.range_query(
                    request.query, EPSILON, max_peers=MAX_PEERS
                )
                run.check(
                    result.item_ids == sequential.item_ids,
                    "batched answer differs from sequential range_query",
                )


async def _open_loop(engine, requests, rate: float) -> dict:
    """Fixed-rate arrivals over the engine's public admission surface.

    ``repro.serve.run_open_loop`` keeps only p50/p99/mean, so the same
    loop is written out here to keep every latency (timed from the
    intended send time, as there) and how late the generator itself ran.
    """
    await engine.start()
    loop = asyncio.get_running_loop()
    start = loop.time()
    latencies: list[float] = []
    lateness: list[float] = []
    batch_sizes: list[int] = []
    shed = 0

    async def fire(index, request):
        nonlocal shed
        intended = start + index / rate
        delay = intended - loop.time()
        if delay > 0:
            await asyncio.sleep(delay)
        lateness.append(loop.time() - intended)
        response = await engine.submit(request)
        if response.status == "shed":
            shed += 1
            return
        latencies.append(loop.time() - intended)
        batch_sizes.append(response.batch_size)

    try:
        await asyncio.gather(
            *(fire(index, request) for index, request in enumerate(requests))
        )
    finally:
        await engine.stop()
    return {
        "latencies_ms": np.asarray(latencies) * 1000.0,
        "lateness_ms": np.asarray(lateness) * 1000.0,
        "mean_batch": float(np.mean(batch_sizes)) if batch_sizes else 0.0,
        "shed": shed,
    }


class Scale(_Workload):
    """Index-phase scoring over bulk-built grids; serial or sharded engine."""

    p90_metric = "engine.index_ms_p90"
    DIM = 16
    EPSILON = 0.25
    SPHERES_PER_PEER = 2

    def __init__(self, seed: int, smoke: bool, *, engine: str):
        self.name = f"scale-{engine}"
        self.seed = seed
        self.engine_name = engine
        self.n_peers = 2048 if smoke else 32768
        self.pass_queries = 16 if smoke else 48
        self.oracle_queries = 4 if smoke else 8
        self.levels = multiresolution.publication_levels(self.DIM, 3)
        rng = _rng(CORPUS_SEED, 0)
        n_spheres = self.n_peers * self.SPHERES_PER_PEER
        self.peer_ids = np.repeat(
            np.arange(self.n_peers, dtype=np.int64), self.SPHERES_PER_PEER
        )
        self.spheres = {
            level: (
                rng.random((n_spheres, level.dimensionality)),
                0.05 * rng.random(n_spheres),
            )
            for level in self.levels
        }
        self.radii = {
            level: bounds.key_space_radius(
                self.EPSILON * bounds.radius_scale(self.DIM, level), level
            )
            for level in self.levels
        }
        self.engine = None
        self._stores: list = []
        self.shm_names: list = []

    def setup(self, run) -> None:
        # Fork the shard workers before any wrapper exists, so they run
        # the program as shipped and record nothing.
        self.engine = create_engine(
            EngineConfig(self.engine_name, workers=2, shard_by="level")
        )
        self._fabric = Network(scheduler=self.engine.create_scheduler())
        self._stores = []
        with run.probe.tracing(run.setup_rec):
            for index, level in enumerate(self.levels):
                with run.probe.span("overlay.grid_build"):
                    can, plan = build_grid_can(
                        level.dimensionality, self.n_peers,
                        fabric=self._fabric, rng=ensure_rng(CORPUS_SEED + index),
                        node_id_offset=(index + 1) * 1_000_000,
                    )
                keys, radii = self.spheres[level]
                run.timed(
                    "publish", bulk_publish, can, plan, keys, radii,
                    peer_ids=self.peer_ids,
                    origins=plan.node_id_offset + self.peer_ids,
                    span="overlay.bulk_publish",
                )
                with run.probe.span("engine.register"):
                    self.engine.register_store(index, can.level_store)
                self._stores.append(can.level_store)
        self.shm_names = [
            shm_name
            for store in self._stores if store.is_shared
            for shm_name, __, ___ in store.shm_manifest()["columns"].values()
        ]

    def fabric(self):
        return self._fabric

    def level_stores(self) -> list:
        return self._stores

    def teardown(self, run) -> None:
        """Close the engine; workers and shared memory must be gone after."""
        run.timed("close", self.engine.close)
        run.check(
            not multiprocessing.active_children(),
            "a shard worker survived engine.close()",
        )
        leaked = [n for n in self.shm_names if os.path.exists(f"/dev/shm/{n}")]
        run.check(not leaked, f"shared memory left behind: {leaked}")
        self.engine = None
        self._stores = []
        self._fabric = None

    def _tasks(self, query: np.ndarray) -> list:
        decomposition = multiresolution.decompose(query)
        return [
            (
                index,
                np.clip(
                    bounds.to_unit_cube(decomposition[level], level), 0.0, 1.0
                ),
                self.radii[level],
            )
            for index, level in enumerate(self.levels)
        ]

    def _query(self, query: np.ndarray) -> dict:
        """The timed op: translate, score every level, min-aggregate."""
        per_level = self.engine.score_levels(self._tasks(query))
        return scoring.aggregate_scores(
            dict(zip(self.levels, per_level)), policy="min"
        )

    def run_pass(self, run, index: int) -> int:
        queries = _rng(self.seed, 100 + index).random(
            (self.pass_queries, self.DIM)
        )
        for query in queries:
            scores = run.timed("query", self._query, query)
            if scores is not None:
                run.counts["queries"] += 1
                run.counts["peers_scored"] += len(scores)
        return len(queries)

    def untraced(self, run) -> None:
        """Mask sizes through the engine plane, the same for both engines."""
        for query in _rng(self.seed, 100).random((self.pass_queries, self.DIM)):
            run.counts["mask_queries"] += 1
            for mask in self.engine.masks(self._tasks(query)):
                run.counts["rows_scanned"] += mask.size
                run.counts["rows_surviving"] += int(np.count_nonzero(mask))

    def _scalar_scores(self, tasks) -> dict:
        """Eq. 1 one sphere at a time over the raw published arrays."""
        per_level = {}
        for (__, center, radius), level in zip(tasks, self.levels):
            keys, radii = self.spheres[level]
            near = np.flatnonzero(
                np.linalg.norm(keys - center, axis=1) <= radii + radius + 1e-6
            )
            entries = [
                SimpleNamespace(
                    key=keys[row], radius=float(radii[row]),
                    # bulk_publish carries no item counts: rows score 0.
                    value=SimpleNamespace(
                        peer_id=int(self.peer_ids[row]), items=0.0
                    ),
                )
                for row in near
            ]
            per_level[level] = scoring.level_scores_scalar(
                entries, center, radius
            )
        return scoring.aggregate_scores(per_level, policy="min")

    def _inline_scores(self, tasks) -> dict:
        """The serial answer computed in this process on the same stores."""
        per_level = {}
        for (index, center, radius), level in zip(tasks, self.levels):
            block = gather_block(
                self._stores[index],
                store_mask(self._stores[index], center, radius),
            )
            per_level[level] = scoring.level_scores(block, center, radius)
        return scoring.aggregate_scores(per_level, policy="min")

    def oracles(self, run) -> None:
        queries = _rng(self.seed, 97).random((self.oracle_queries, self.DIM))
        for query in queries:
            tasks = self._tasks(query)
            answer = self._query(query)
            run.check(
                _scores_agree(answer, self._scalar_scores(tasks)),
                "engine scores differ from the scalar oracle",
            )
            if self.engine.parallel:
                run.check(
                    _scores_agree(answer, self._inline_scores(tasks)),
                    "sharded scores differ from the serial answer",
                )


def _scores_agree(left: dict, right: dict, tolerance: float = 1e-9) -> bool:
    return set(left) == set(right) and all(
        abs(left[peer] - right[peer]) <= tolerance for peer in left
    )


WORKLOADS = {
    "session-routed": SessionRouted,
    "serve-hot": lambda seed, smoke: Serve(seed, smoke, churn=False),
    "serve-churn": lambda seed, smoke: Serve(seed, smoke, churn=True),
    "scale-serial": lambda seed, smoke: Scale(seed, smoke, engine="serial"),
    "scale-sharded": lambda seed, smoke: Scale(seed, smoke, engine="sharded"),
}
