"""The concurrent batched query-serving engine.

:class:`ServeEngine` is the throughput-oriented front door over one
:class:`repro.core.network.HyperMNetwork`:

* **Admission control** — a bounded waiting queue plus a bounded number
  of in-flight coalescing dispatchers. A request arriving past the queue
  bound gets an explicit *shed* response immediately (no error, no
  unbounded latency tail); admitted requests always complete.
* **Coalescing** — each dispatcher collects up to ``max_batch`` waiting
  requests inside a ``batch_window`` and executes them as one batch:
  one stacked intersection GEMM per level over the look-ups the cache
  does not hold (:mod:`repro.serve.batch`), each look-up's Eq. 1 table
  scored once (one kernel call per level and radius) and shared, a
  per-query join of those tables, and one scan per contacted peer.
* **Caching** — hot look-ups (candidate rows *and* their Eq. 1 score
  table), generation-keyed so publishes / deltas / rebalances
  invalidate exactly the mutated level (:mod:`repro.serve.cache`); key
  translations are memoized by the query pipeline itself
  (:func:`repro.core.queries.level_plan`). A mutation's invalidated
  look-ups are the next batch's misses, each patched from its stale
  prior in that batch's stacked pass: only the rows the mutation
  stamped are re-resolved and re-scored (:func:`repro.serve.batch.refresh`).
* **Repeats** — a range request's join and ranking are memoized on the
  tables they were computed from (:class:`repro.serve.cache.Joined`,
  held by the last level's look-up, so the candidate cache bounds it
  and a re-scored or evicted look-up ends it), and so are its peers'
  scan hits, each valid while that peer's ``items_version`` (bumped by
  ``add_items`` / ``remove_items``) holds — across a re-join too. A
  repeated request re-joins nothing, sorts nothing and scans only peers
  whose items changed.

Batch execution itself is synchronous Python over the single-threaded
simulator, so ``max_inflight`` dispatchers serialize on compute; the
knob still bounds how many coalesced batches can be admitted into
execution at once, which is the degree a real deployment (with compute
off the event loop) would tune.

Ordering semantics match the sequential plane: every query's Eq. 1
scores are computed against the store state at batch start (the level
tables are evaluated arrays and each query's scores a plain dict of its
own, so an adaptation epoch fired mid-batch by an earlier query's
retrieval cannot stale a later query's scoring), and each query's
retrieval + ``note_query`` tick runs in admission order.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass

import numpy as np

from repro import runtime
from repro.core.knn import check_knn_budget, run_knn
from repro.core.queries import (
    finish_range,
    level_plan,
    resolve_origin,
    score_peers,
    translation_cache_info,
)
from repro.core.results import KnnResult, RangeQueryResult
from repro.core.scoring import rank_peers
from repro.exceptions import ServeError, ValidationError
from repro.obs import registry as obs_registry
from repro.serve.batch import StoreSource
from repro.serve.cache import CandidateCache, Joined
from repro.utils.validation import (
    check_count,
    check_peer_budget,
    check_positive,
    check_vector,
)


@dataclass(frozen=True)
class ServeConfig:
    """Admission, batching, and caching knobs."""

    #: Waiting requests admitted before new arrivals are shed.
    max_queue: int = 64
    #: Coalescing dispatchers (concurrent batches admitted to execution).
    max_inflight: int = 2
    #: Largest batch one dispatcher coalesces.
    max_batch: int = 16
    #: Seconds a dispatcher waits for co-batchable requests.
    batch_window: float = 0.002
    #: Candidate-cache entries (per engine, across levels).
    cache_candidates: int = 256

    def __post_init__(self) -> None:
        # Every knob is refused here, never at first use: the counts are
        # integers (a bool is not one), the window finite seconds.
        for name in (
            "max_queue", "max_inflight", "max_batch", "cache_candidates",
        ):
            check_count(getattr(self, name), name)
        if isinstance(self.batch_window, bool):
            raise ValidationError(
                f"batch_window must be a number, got {self.batch_window!r}"
            )
        check_positive(self.batch_window, "batch_window", strict=False)


@dataclass(frozen=True)
class RangeRequest:
    """One range query: all items within ``epsilon`` of ``query``."""

    query: np.ndarray
    epsilon: float
    max_peers: int | None = None
    origin_peer: int | None = None
    aggregation: str | None = None


@dataclass(frozen=True)
class KnnRequest:
    """One k-NN query (Figure 5 heuristic, optional early termination)."""

    query: np.ndarray
    k: int
    c: float = 1.0
    top_p: int | None = None
    origin_peer: int | None = None
    aggregation: str | None = None
    #: Stop contacting ranked peers once their Theorem 3.1 distance lower
    #: bounds prove they cannot improve the current top k.
    early_termination: bool = True


@dataclass
class ServeResponse:
    """What :meth:`ServeEngine.submit` resolves to."""

    status: str  # "ok" | "shed"
    result: RangeQueryResult | KnnResult | None = None
    reason: str | None = None
    batch_size: int = 0
    latency: float = 0.0


@dataclass
class _Pending:
    request: RangeRequest | KnnRequest
    future: asyncio.Future
    enqueued: float


_STOP = object()


@dataclass
class _Counters:
    admitted: int = 0
    shed: int = 0
    batches: int = 0
    served: int = 0
    knn_early_stops: int = 0
    knn_peers_skipped: int = 0


class ServeEngine:
    """Concurrent batched range/k-NN serving over one network.

    The synchronous surface (:meth:`execute`, :meth:`execute_batch`) is
    complete on its own — benchmarks and tests drive it directly; the
    asyncio surface (:meth:`start` / :meth:`submit` / :meth:`stop`) adds
    admission control and coalescing on top of it.
    """

    def __init__(self, network, config: ServeConfig | None = None):
        self.network = network
        self.config = config or ServeConfig()
        self.candidates = CandidateCache(self.config.cache_candidates)
        self.source = StoreSource(network, self.candidates)
        self._counters = _Counters()
        self._queue: asyncio.Queue | None = None
        self._tasks: list[asyncio.Task] = []
        self._waiting = 0

    # -- synchronous batch plane --------------------------------------------

    def execute(self, request: RangeRequest | KnnRequest):
        """Serve one request (a batch of one)."""
        return self.execute_batch([request])[0]

    def execute_batch(self, requests: list) -> list:
        """Serve a coalesced batch; one stacked mask pass per level.

        The query pipeline of :mod:`repro.core.queries` over the
        co-located :class:`~repro.serve.batch.StoreSource`, which hands
        every range request its per-level Eq. 1 tables (cached with the
        look-up's candidates, scored once per store generation); here
        they are only joined, into a fresh ``peer_scores`` dict per
        result; every peer a request may contact is scanned once for the
        batch (:meth:`_search`). Results come back in request order and
        match what :func:`repro.core.queries.range_query` /
        :func:`repro.core.knn.knn_query` return for the same inputs on
        the same network state (``index_hops`` excepted: the engine
        co-locates the index, so no overlay routing is charged).
        """
        if not requests:
            return []
        network = self.network
        metrics = obs_registry.metrics()
        recorder = runtime.current.tracer
        with recorder.span(
            "serve_batch", size=len(requests)
        ) as span, runtime.current.flight.span(
            "serve_batch", size=len(requests)
        ):
            origins = [
                resolve_origin(network, req.origin_peer) for req in requests
            ]
            plans = [self._plan(req) for req in requests]
            ranges = [
                position for position, req in enumerate(requests)
                if isinstance(req, RangeRequest)
            ]
            fetched = self.source.fetch_batch([plans[p] for p in ranges])
            # Join every range query before any retrieval runs: a join
            # is kept read-only on its look-ups and each result gets a
            # copy, so a mid-batch adaptation epoch (store generation
            # bump) cannot stale a later query's scoring.
            joins = {
                position: self._join(
                    lookups,
                    requests[position].aggregation
                    or network.config.aggregation,
                )
                for position, lookups in zip(ranges, fetched, strict=True)
            }
            searched = self._search(requests, joins)
            results = []
            for position, request in enumerate(requests):
                if isinstance(request, KnnRequest):
                    results.append(self._knn(
                        request, origins[position], plans[position]
                    ))
                    continue
                joined = joins[position]
                results.append(finish_range(
                    network, request.query, request.epsilon,
                    dict(joined.scores), origin_peer=origins[position],
                    max_peers=request.max_peers, searched=searched[position],
                    ranked=joined.ranked,
                ))
                if network.adaptation is not None:
                    network.adaptation.note_query()
            self._counters.batches += 1
            self._counters.served += len(requests)
            span.set(served=len(requests))
        metrics.counter("serve.batches").inc()
        metrics.counter("serve.requests").inc(len(requests))
        metrics.histogram("serve.batch_size").observe(len(requests))
        return results

    @staticmethod
    def _join(lookups: dict, policy: str) -> Joined:
        """The request's join and ranking, memoized on its look-ups.

        A re-join keeps the scan hits of the memo it replaces.
        """
        found = list(lookups.values())
        joined = found[-1].joined
        if joined is None or not joined.matches(found, policy):
            scores = score_peers(
                {level: lookup.table() for level, lookup in lookups.items()},
                policy,
            )
            joined = Joined(found, policy, scores, rank_peers(scores), joined)
            found[-1].joined = joined
        return joined

    def _search(self, requests: list, joins: dict) -> dict:
        """``{position: {peer: hits}}``, at most one scan per peer a batch.

        A request contacts at most ``ranked[:max_peers]`` (a relay plan
        only reorders it). A peer is scanned only for the columns its
        join's memo lacks at the peer's current ``items_version``; exact,
        as no batch writes peer data.
        """
        peers = self.network.peers
        columns: dict = {}  # peer -> {(query bytes, epsilon): None}, in order
        asked = {}
        for position, joined in joins.items():
            request = requests[position]
            query = np.asarray(request.query, dtype=np.float64)
            column = (query.tobytes(), float(request.epsilon))
            memo = joined.hits_of(column)
            contacts = [
                peer for peer, __ in joined.ranked[:request.max_peers]
            ]
            asked[position] = (column, memo, contacts)
            for peer in contacts:
                held = memo.get(peer)
                if held is None or held[0] != peers[peer].items_version:
                    columns.setdefault(peer, {})[column] = None
        hits = {}
        for peer, wanted in columns.items():
            queries = np.stack([np.frombuffer(query) for query, __ in wanted])
            radii = np.array([epsilon for __, epsilon in wanted])
            found = peers[peer].scan(queries, radii)
            version = peers[peer].items_version
            for column, peer_hits in zip(wanted, found, strict=True):
                hits[peer, column] = (version, peer_hits)
        searched = {}
        for position, (column, memo, contacts) in asked.items():
            for peer in contacts:
                if (peer, column) in hits:
                    memo[peer] = hits[peer, column]
            searched[position] = {peer: memo[peer][1] for peer in contacts}
        return searched

    def _plan(self, request) -> dict:
        """One request's ``{level: (key, radius)}`` plan (k-NN: no radii)."""
        network = self.network
        query = check_vector(
            request.query, "query", dim=network.dimensionality
        )
        if isinstance(request, KnnRequest):
            check_knn_budget(request.k, request.c)
            check_peer_budget(request.top_p, "top_p")
            return level_plan(network.dimensionality, network.levels, query)
        check_positive(request.epsilon, "epsilon", strict=False)
        check_peer_budget(request.max_peers, "max_peers")
        return level_plan(
            network.dimensionality, network.levels, query, request.epsilon
        )

    def _knn(self, request: KnnRequest, origin: int, plan: dict) -> KnnResult:
        """Figure 5 k-NN over the cached store-direct index."""
        result, skipped = run_knn(
            self.network, request.query, request.k, plan, self.source,
            origin=origin, c=request.c, top_p=request.top_p,
            aggregation=request.aggregation,
            early_stop=request.early_termination,
        )
        if skipped:
            self._counters.knn_early_stops += 1
            self._counters.knn_peers_skipped += skipped
            metrics = obs_registry.metrics()
            metrics.counter("serve.knn.early_stops").inc()
            metrics.histogram("serve.knn.peers_skipped").observe(skipped)
        return result

    # -- asyncio admission + coalescing layer -------------------------------

    async def start(self) -> None:
        """Spawn the coalescing dispatchers (idempotent misuse raises)."""
        if self._tasks:
            raise ServeError("engine already started")
        loop = asyncio.get_running_loop()
        self._queue = asyncio.Queue()
        self._waiting = 0
        self._tasks = [
            loop.create_task(self._dispatch_loop())
            for __ in range(self.config.max_inflight)
        ]

    async def stop(self) -> None:
        """Drain the queue, stop every dispatcher, and reap the tasks."""
        if not self._tasks:
            return
        for __ in self._tasks:
            self._queue.put_nowait(_STOP)
        await asyncio.gather(*self._tasks)
        self._tasks = []
        self._queue = None

    async def submit(
        self, request: RangeRequest | KnnRequest
    ) -> ServeResponse:
        """Admit one request; resolves when its batch completes (or sheds).

        Shedding is synchronous: a request arriving while ``max_queue``
        requests already wait gets the shed response immediately —
        bounded queueing is what keeps the latency tail honest.
        """
        if not self._tasks:
            raise ServeError("engine not started; call start() first")
        if self._waiting >= self.config.max_queue:
            self._counters.shed += 1
            obs_registry.metrics().counter("serve.shed").inc()
            return ServeResponse(status="shed", reason="queue_full")
        loop = asyncio.get_running_loop()
        pending = _Pending(request, loop.create_future(), loop.time())
        self._waiting += 1
        self._counters.admitted += 1
        self._queue.put_nowait(pending)
        return await pending.future

    async def _fetch(self, timeout: float):
        """One timed queue read; ``None`` means the batch window elapsed."""
        try:
            return await asyncio.wait_for(self._queue.get(), timeout)
        except asyncio.TimeoutError:
            return None

    def _settle(self, batch: list[_Pending], loop) -> None:
        """Execute one coalesced batch and resolve every waiter's future."""
        try:
            results = self.execute_batch([p.request for p in batch])
        except Exception as error:  # surface to every waiter
            for pending in batch:
                if not pending.future.done():
                    pending.future.set_exception(error)
        else:
            now = loop.time()
            metrics = obs_registry.metrics()
            for pending, result in zip(batch, results, strict=True):
                latency = now - pending.enqueued
                metrics.histogram("serve.latency_ms").observe(
                    latency * 1000.0
                )
                if not pending.future.done():
                    pending.future.set_result(ServeResponse(
                        status="ok",
                        result=result,
                        batch_size=len(batch),
                        latency=latency,
                    ))

    async def _dispatch_loop(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            head = await self._queue.get()
            if head is _STOP:
                return
            batch = [head]
            deadline = loop.time() + self.config.batch_window
            stop_after = False
            while len(batch) < self.config.max_batch:
                if not self._queue.empty():
                    item = self._queue.get_nowait()
                else:
                    remaining = deadline - loop.time()
                    if remaining <= 0:
                        break
                    item = await self._fetch(remaining)
                    if item is None:
                        break
                if item is _STOP:
                    # Keep the stop signal's semantics: this dispatcher
                    # finishes its batch, then exits.
                    stop_after = True
                    break
                batch.append(item)
            self._waiting -= len(batch)
            self._settle(batch, loop)
            if stop_after:
                return

    # -- introspection -------------------------------------------------------

    def snapshot(self) -> dict:
        """Engine counters + cache state (JSON-safe)."""
        counters = self._counters
        return {
            "admitted": counters.admitted,
            "shed": counters.shed,
            "batches": counters.batches,
            "served": counters.served,
            "knn_early_stops": counters.knn_early_stops,
            "knn_peers_skipped": counters.knn_peers_skipped,
            "waiting": self._waiting,
            "candidate_cache": self.candidates.snapshot(),
            "translation_cache": translation_cache_info(),
        }
