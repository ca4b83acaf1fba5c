"""The Hyper-M network: per-level overlays, peers, publication, queries."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import runtime
from repro.core.peer import HyperMPeer
from repro.core.results import ClusterRecord, DisseminationReport
from repro.exceptions import ValidationError
from repro.net.network import Network
from repro.obs import registry as obs_registry
from repro.overlay.adapt import AdaptationController
from repro.overlay.can import CANNetwork
from repro.utils.rng import ensure_rng, spawn_rngs
from repro.wavelets.bounds import key_space_radius, to_unit_cube
from repro.wavelets.multiresolution import Level, publication_levels

#: Id stride separating each level's overlay nodes on the shared fabric.
_LEVEL_ID_STRIDE = 1_000_000


@dataclass(frozen=True)
class HyperMConfig:
    """Operating point of a Hyper-M deployment.

    Attributes
    ----------
    levels_used:
        Number of coarsest wavelet subspaces published (the paper settles
        on 4: more levels add overhead without precision/recall gains).
    n_clusters:
        The paper's ``K_p``: clusters per peer per subspace.
    aggregation:
        Cross-level score policy: ``"min"`` (paper), ``"sum"``, ``"product"``.
    kmeans_restarts:
        k-means++ restarts per clustering run.
    """

    levels_used: int = 4
    n_clusters: int = 10
    aggregation: str = "min"
    kmeans_restarts: int = 1

    def __post_init__(self) -> None:
        if self.levels_used < 1:
            raise ValidationError(
                f"levels_used must be >= 1, got {self.levels_used}"
            )
        if self.n_clusters < 1:
            raise ValidationError(
                f"n_clusters must be >= 1, got {self.n_clusters}"
            )
        if self.aggregation not in ("min", "sum", "product"):
            raise ValidationError(
                f"unknown aggregation {self.aggregation!r}"
            )
        if self.kmeans_restarts < 1:
            raise ValidationError(
                f"kmeans_restarts must be >= 1, got {self.kmeans_restarts}"
            )


class HyperMNetwork:
    """One overlay per wavelet level, plus the peers publishing into them.

    Parameters
    ----------
    dimensionality:
        Item dimensionality ``d`` (a power of two).
    config:
        :class:`HyperMConfig`; defaults to the paper's operating point.
    fabric:
        Shared MANET fabric for hop/energy accounting across all levels.
    rng:
        Seed or generator; child streams drive each overlay and each
        peer's clustering.
    overlay_factory:
        Callable ``(dimensionality, *, fabric, rng, node_id_offset) ->
        StoreMaintenancePlane``. When ``None``, the run context's ``overlay`` (the
        CLI's ``--overlay`` flag; :mod:`repro.runtime`) wins, then
        :class:`repro.overlay.can.CANNetwork`. Any registered
        backend (BATON, VBI) demonstrates overlay
        independence.

    Examples
    --------
    >>> import numpy as np
    >>> net = HyperMNetwork(16, HyperMConfig(levels_used=3, n_clusters=4), rng=0)
    >>> rng = np.random.default_rng(0)
    >>> for __ in range(4):
    ...     _ = net.add_peer(rng.random((30, 16)))
    >>> report = net.publish_all()
    >>> report.items_published
    120
    """

    def __init__(
        self,
        dimensionality: int,
        config: HyperMConfig | None = None,
        *,
        fabric: Network | None = None,
        rng=None,
        overlay_factory=None,
    ):
        self.config = config or HyperMConfig()
        self.levels: list[Level] = publication_levels(
            dimensionality, self.config.levels_used
        )
        self.dimensionality = int(dimensionality)
        self.fabric = fabric if fabric is not None else Network()
        self._rng = ensure_rng(rng)
        factory = overlay_factory or runtime.current.overlay or CANNetwork
        overlay_rngs = spawn_rngs(self._rng, len(self.levels))
        self.overlays = {
            level: factory(
                level.dimensionality,
                fabric=self.fabric,
                rng=level_rng,
                node_id_offset=(index + 1) * _LEVEL_ID_STRIDE,
            )
            for index, (level, level_rng) in enumerate(
                zip(self.levels, overlay_rngs)
            )
        }
        self.peers: dict[int, HyperMPeer] = {}
        #: Optional load-adaptation controller (``repro.overlay.adapt``);
        #: installed by :meth:`enable_adaptation`, or here when the run
        #: context carries a config (the CLI's ``--adapt`` flag).
        self.adaptation: AdaptationController | None = None
        if runtime.current.adapt is not None:
            self.enable_adaptation(runtime.current.adapt)
        self._overlay_node: dict[tuple[Level, int], int] = {}
        #: ``peer_id -> level-0 node``, read per frame (:meth:`home_node`).
        self._home_node: dict[int, int] = {}
        #: ``(level, peer_id) -> {sid -> entry_id}``: which overlay entry
        #: each published sphere (by its epoch-state sphere id) lives at.
        #: The delta pipeline patches/retracts these entries in place.
        self._published_entries: dict[tuple[Level, int], dict[int, int]] = {}

    def enable_adaptation(self, config=None) -> AdaptationController:
        """Attach a load-adaptation controller (idempotent per config).

        The controller consumes one loadmap snapshot per epoch and
        reacts with zone rebalances, replication boosts/sheds, and
        quality-scored retrieval multicast — see
        :mod:`repro.overlay.adapt`. Returns the controller.
        """
        self.adaptation = AdaptationController(self, config)
        return self.adaptation

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        overlay = type(next(iter(self.overlays.values()))).__name__
        return (
            f"HyperMNetwork(d={self.dimensionality}, "
            f"levels={[str(l) for l in self.levels]}, "
            f"peers={self.n_peers}, overlay={overlay})"
        )

    # -- peers ----------------------------------------------------------------

    def add_peer(
        self, data: np.ndarray, item_ids: np.ndarray | None = None
    ) -> HyperMPeer:
        """Create a peer holding ``data`` and join it to every level overlay."""
        peer_id = len(self.peers)
        peer = HyperMPeer(peer_id, data, item_ids)
        if peer.dimensionality != self.dimensionality:
            raise ValidationError(
                f"peer data is {peer.dimensionality}-d; network expects "
                f"{self.dimensionality}-d"
            )
        self.peers[peer_id] = peer
        for level, overlay in self.overlays.items():
            self.place_node(level, peer_id, overlay.join())
        return peer

    def place_node(self, level: Level, peer_id: int, node_id: int) -> None:
        """Record ``node_id`` as ``peer_id``'s overlay node at ``level``."""
        self._overlay_node[(level, peer_id)] = node_id
        if level == self.levels[0]:
            self._home_node[peer_id] = node_id

    def depart(
        self, peer_id: int, *, withdraw_summaries: bool = False
    ) -> None:
        """A peer's *graceful* departure (MANET churn, clean-only).

        This is always an orderly exit: the peer's overlay nodes leave
        via the overlay's hand-off protocol — their zones/arcs and the
        index entries they stored transfer to remaining nodes, so routing
        and index queries keep working. The peer itself then goes
        offline: direct retrieval from it fails and queries lose access
        to its items.

        This method never models an *abrupt* failure (battery death,
        radio silence, walking out of range). A crashed device cannot
        run a hand-off protocol; that case is modelled exclusively by
        :func:`repro.faults.resilience.crash_peer`, which flips the peer
        offline *without* any overlay cleanup and leaves its zones and
        stored entries dangling for the resilience machinery (retries,
        failure detection, tombstoning) to cope with.

        Parameters
        ----------
        withdraw_summaries:
            When true, the peer's own published cluster summaries are
            also dropped from every overlay before it leaves (the peer
            says goodbye properly); the default leaves them dangling —
            even a graceful departure may not bother unpublishing — so
            queries may waste contact attempts on it.
        """
        peer = self.peers.get(peer_id)
        if peer is None:
            raise ValidationError(f"unknown peer {peer_id}")
        peer.online = False
        for level in self.levels:
            overlay = self.overlays[level]
            node_id = self._overlay_node[(level, peer_id)]
            if node_id in overlay.node_ids:
                overlay.leave(node_id)
        if withdraw_summaries:
            self.withdraw_summaries(peer_id)

    def withdraw_summaries(self, peer_id: int, *, charge: bool = False) -> int:
        """Drop every published cluster record of ``peer_id``; returns the
        number of node-level removals (one per holding dropped).

        The peer's rows come from one vectorized scan of the level store's
        peer-id column; the overlay releases every holding of them and
        tombstones them (:meth:`StoreMaintenancePlane.withdraw_rows`), and
        the store compacts if the tombstone threshold is passed — so a
        withdrawn sphere can never be scored again (any outstanding
        :class:`repro.index.CandidateSet` turns stale).

        With ``charge=True`` the withdrawal traffic is accounted: one
        message from the peer to each holder of each of its entries — the
        deletions retrace the replica paths publication used. The default
        leaves withdrawal free, matching the dissemination experiments
        (which measure publication only).
        """
        removed = 0
        for level in self.levels:
            self._published_entries.pop((level, peer_id), None)
        for level, overlay in self.overlays.items():
            removed += overlay.withdraw_rows(
                overlay.level_store.rows_for_peer(peer_id),
                origin=self._overlay_node.get((level, peer_id)) if charge else None,
            )
        return removed

    def overlay_node(self, level: Level, peer_id: int) -> int:
        """Overlay node id of ``peer_id`` at ``level``."""
        try:
            return self._overlay_node[(level, peer_id)]
        except KeyError:
            raise ValidationError(
                f"peer {peer_id} has no node at level {level}"
            ) from None

    def home_node(self, peer_id: int) -> int:
        """``overlay_node(levels[0], peer_id)`` without hashing a ``Level``."""
        node = self._home_node.get(peer_id)
        return self.overlay_node(self.levels[0], peer_id) if node is None else node

    @property
    def n_peers(self) -> int:
        """Number of member peers."""
        return len(self.peers)

    @property
    def total_items(self) -> int:
        """Items held across all peers (published or not)."""
        return sum(peer.n_items for peer in self.peers.values())

    # -- publication (paper Figure 2) -------------------------------------------

    def _sphere_payload(self, peer_id: int, sphere, level: Level):
        """Key-space radius and record of one sphere at ``level``."""
        radius = key_space_radius(sphere.radius, level)
        record = ClusterRecord(
            peer_id=peer_id, items=sphere.items, level_name=str(level)
        )
        return radius, record

    def _insert_level(self, level: Level, peer_id: int, spheres) -> tuple[list, range]:
        """Insert one level's spheres with one ``insert_many``.

        Returns ``(receipts, entry_ids)``: the store gives rows monotonic
        ids, so slot ``i`` holds ``next_entry_id + i`` — the id the delta
        pipeline will later patch or retract.
        """
        overlay = self.overlays[level]
        keys = np.clip(
            to_unit_cube(np.array([s.centroid for s in spheres]), level),
            0.0, 1.0,
        )
        radii, records = zip(
            *(self._sphere_payload(peer_id, s, level) for s in spheres)
        )
        first = overlay.level_store.next_entry_id
        receipts = overlay.insert_many(
            self.overlay_node(level, peer_id), keys, records, radii
        )
        return receipts, range(first, first + len(receipts))

    def publish_peer(
        self, peer_id: int, *, summary=None
    ) -> DisseminationReport:
        """Summarise and publish one peer's items in full (steps i1–i3).

        The degenerate full-epoch case of the delta pipeline: one fresh
        clustering of the published prefix, every sphere inserted, and the
        peer's epoch state reset around the new summary so later
        :meth:`publish_delta` rounds can diff against it.

        A prebuilt ``summary`` (e.g. restored via
        :mod:`repro.core.serialization` from a previous session) skips the
        decomposition/clustering step entirely — it must match this
        network's dimensionality and levels.

        A peer publishes in full once: while its spheres are published
        (until :meth:`withdraw_summaries`), bring it up to date with
        :meth:`republish_peer` instead — a second full publication would
        add a second copy of every sphere that no delta ever retracts.
        """
        peer = self.peers[peer_id]
        if any((level, peer_id) in self._published_entries for level in self.levels):
            raise ValidationError(
                f"peer {peer_id} is already published; use republish_peer"
            )
        recorder = runtime.current.tracer
        with recorder.span(
            "publish", peer=peer_id
        ) as publish_span, runtime.current.flight.span(
            "publish", peer=peer_id
        ) as flight_op:
            if summary is None:
                summary = peer.build_summary(
                    n_clusters=self.config.n_clusters,
                    levels_used=self.config.levels_used,
                    rng=self._rng,
                    n_init=self.config.kmeans_restarts,
                )
            else:
                if summary.dimensionality != self.dimensionality:
                    raise ValidationError(
                        f"summary is {summary.dimensionality}-d; network "
                        f"expects {self.dimensionality}-d"
                    )
                if list(summary.levels) != list(self.levels):
                    raise ValidationError(
                        "summary levels do not match the network's levels"
                    )
            peer.adopt_full_summary(summary)
            state = peer.epoch_state
            report = DisseminationReport(items_published=peer.unpublished_from)
            bytes_before = self.fabric.metrics.total_bytes
            energy_before = self.fabric.energy.total
            for level in self.levels:
                spheres = summary.spheres[level]
                with recorder.span(
                    f"can_insert[{level}]", level=str(level)
                ) as level_span:
                    receipts, entry_ids = self._insert_level(
                        level, peer_id, spheres
                    )
                    routing = sum(r.routing_hops for r in receipts)
                    replicas = sum(r.replicas for r in receipts)
                    report.spheres_inserted += len(receipts)
                    report.routing_hops += routing
                    report.replica_hops += replicas
                    level_span.set(
                        spheres=len(spheres),
                        routing_hops=routing,
                        replica_hops=replicas,
                    )
                # Fresh-state sids are slot-aligned (sid = start + slot),
                # so the sorted sids pair with the batch's rows in order.
                sids = sorted(state.spheres[level]) if state is not None else []
                self._published_entries[(level, peer_id)] = dict(zip(sids, entry_ids))
            report.bytes_sent = self.fabric.metrics.total_bytes - bytes_before
            report.energy = self.fabric.energy.total - energy_before
            publish_span.set(
                items=report.items_published,
                spheres=report.spheres_inserted,
                routing_hops=report.routing_hops,
                replica_hops=report.replica_hops,
                bytes=report.bytes_sent,
            )
            flight_op.set(
                items=report.items_published,
                spheres=report.spheres_inserted,
            )
        metrics = obs_registry.metrics()
        metrics.counter("publish.operations").inc()
        metrics.counter("publish.items").inc(report.items_published)
        metrics.counter("publish.spheres").inc(report.spheres_inserted)
        metrics.counter("publish.routing_hops").inc(report.routing_hops)
        metrics.counter("publish.replica_hops").inc(report.replica_hops)
        metrics.counter("publish.bytes").inc(report.bytes_sent)
        metrics.histogram("publish.hops_per_sphere").observe(
            report.hops_per_sphere
        )
        return report

    def publish_delta(
        self, peer_id: int, *, force_full: bool = False
    ) -> DisseminationReport:
        """Publish one peer's *mutations* since its last publication.

        The epoch-based delta pipeline: the peer folds every pending
        add/remove into its incrementally maintained clustering
        (:meth:`HyperMPeer.build_delta`), and only the diff touches the
        overlays — updated spheres patch their existing entry ids in
        place (one batched scalar ``PUBLISH_DELTA`` message per holder),
        retired spheres ride the tombstone machinery, and only genuinely
        new spheres pay the full routed-insert price. A peer with no
        pending mutations costs zero spheres and zero bytes. Past the
        drift threshold (or with ``force_full``) the round degenerates to
        a full re-clustering expressed as remove-all + insert-all.
        """
        peer = self.peers[peer_id]
        recorder = runtime.current.tracer
        metrics = obs_registry.metrics()
        with recorder.span(
            "publish_delta", peer=peer_id
        ) as delta_span, runtime.current.flight.span(
            "publish_delta", peer=peer_id
        ):
            with recorder.span("delta_build", peer=peer_id) as build_span:
                delta = peer.build_delta(
                    n_clusters=self.config.n_clusters,
                    levels_used=self.config.levels_used,
                    rng=self._rng,
                    n_init=self.config.kmeans_restarts,
                    force_full=force_full,
                )
                build_span.set(
                    full=delta.full,
                    items_added=delta.items_added,
                    items_removed=delta.items_removed,
                    updated=delta.spheres_updated,
                    inserted=delta.spheres_inserted,
                    removed=delta.spheres_removed,
                )
            if delta.full:
                items_changed = delta.items_covered
            else:
                items_changed = delta.items_added + delta.items_removed
            report = DisseminationReport(items_published=items_changed)
            bytes_before = self.fabric.metrics.total_bytes
            energy_before = self.fabric.energy.total
            self._apply_delta(peer_id, delta, report, recorder)
            report.bytes_sent = self.fabric.metrics.total_bytes - bytes_before
            report.energy = self.fabric.energy.total - energy_before
            delta_span.set(
                items=report.items_published,
                inserted=report.spheres_inserted,
                updated=report.spheres_updated,
                removed=report.spheres_removed,
                routing_hops=report.routing_hops,
                replica_hops=report.replica_hops,
                bytes=report.bytes_sent,
                full=delta.full,
            )
        metrics.counter("publish.delta.operations").inc()
        metrics.counter("publish.delta.items").inc(report.items_published)
        metrics.counter("publish.delta.spheres_inserted").inc(
            report.spheres_inserted
        )
        metrics.counter("publish.delta.spheres_updated").inc(
            report.spheres_updated
        )
        metrics.counter("publish.delta.spheres_removed").inc(
            report.spheres_removed
        )
        metrics.counter("publish.delta.routing_hops").inc(report.routing_hops)
        metrics.counter("publish.delta.replica_hops").inc(report.replica_hops)
        metrics.counter("publish.delta.bytes").inc(report.bytes_sent)
        if delta.full:
            metrics.counter("publish.delta.full_fallbacks").inc()
        return report

    def _apply_delta(
        self, peer_id: int, delta, report: DisseminationReport, recorder
    ) -> None:
        """Apply one :class:`SummaryDelta` to every level overlay.

        Per level, in tombstone-safe order: retired spheres are retracted
        first (batched per holder), surviving updated spheres patch their
        entries in place, and new spheres are inserted with fresh entry
        ids. Spheres whose mapped entry died underneath them — withdrawn
        while the peer was away, or tombstoned by the failure detector —
        are *revived* with a normal insert, so a delta round always leaves
        the overlays covering the peer's full published state.
        """
        peer = self.peers[peer_id]
        state = peer.epoch_state
        for level in self.levels:
            overlay = self.overlays[level]
            store = overlay.level_store
            origin = self.overlay_node(level, peer_id)
            level_delta = delta.per_level[level]
            mapping = self._published_entries.setdefault((level, peer_id), {})
            with recorder.span(
                f"delta_apply[{level}]", level=str(level)
            ) as level_span:
                # 1. removals (a full delta replaces everything mapped).
                if delta.full:
                    doomed_sids = list(mapping)
                else:
                    doomed_sids = [
                        sid for sid in level_delta.removed if sid in mapping
                    ]
                retract_hops = overlay.retract_entries(
                    origin, [mapping.pop(sid) for sid in doomed_sids]
                )
                report.routing_hops += retract_hops
                report.spheres_removed += len(level_delta.removed)

                # 2. in-place updates; dead entries fall through to revival.
                patches = []
                revive = []
                for sid in sorted(level_delta.updated):
                    sphere = level_delta.updated[sid]
                    eid = mapping.get(sid)
                    if eid is None or not store.has_entry(eid):
                        revive.append((sid, sphere))
                        continue
                    patches.append(
                        (eid, *self._sphere_payload(peer_id, sphere, level))
                    )
                patch_hops = extend_hops = 0
                if patches:
                    patch_hops, extend_hops = overlay.patch_entries(
                        origin, patches
                    )
                    report.routing_hops += patch_hops
                    report.replica_hops += extend_hops
                    report.spheres_updated += len(patches)

                # 3. inserts: new spheres, plus revivals of dead entries.
                to_insert = [
                    (sid, level_delta.inserted[sid])
                    for sid in sorted(level_delta.inserted)
                ]
                to_insert.extend(revive)
                # Resync sweep: unchanged spheres whose entries vanished
                # (withdrawn or tombstoned while the peer was away).
                if state is not None and not delta.full:
                    for sid in sorted(state.spheres[level]):
                        if (
                            sid in level_delta.updated
                            or sid in level_delta.inserted
                        ):
                            continue
                        eid = mapping.get(sid)
                        if eid is not None and store.has_entry(eid):
                            continue
                        to_insert.append((sid, state.spheres[level][sid]))
                routing = replicas = 0
                if to_insert:
                    sids, spheres = zip(*to_insert)
                    receipts, entry_ids = self._insert_level(
                        level, peer_id, spheres
                    )
                    mapping.update(zip(sids, entry_ids))
                    report.spheres_inserted += len(receipts)
                    routing = sum(r.routing_hops for r in receipts)
                    replicas = sum(r.replicas for r in receipts)
                report.routing_hops += routing
                report.replica_hops += replicas
                level_span.set(
                    removed=len(doomed_sids),
                    updated=len(patches),
                    inserted=len(to_insert),
                    retract_hops=retract_hops,
                    patch_hops=patch_hops,
                    routing_hops=routing,
                    replica_hops=extend_hops + replicas,
                )

    def republish_peer(
        self, peer_id: int, *, full: bool = False
    ) -> DisseminationReport:
        """Bring one peer's published index state up to date.

        The staleness remedy for Figure 10c's scenario: items added (or
        removed) after the last publication become visible to the index
        again. By default this is one :meth:`publish_delta` round — only
        the changed spheres touch the overlays, and a call with no
        pending mutations is **idempotent**: zero spheres moved, zero
        bytes sent. With ``full=True`` the legacy behaviour runs instead:
        withdraw every published summary (charged) and re-publish a fresh
        clustering of all items — the baseline the delta path is measured
        against.
        """
        if full:
            peer = self.peers[peer_id]
            self.withdraw_summaries(peer_id, charge=True)
            peer.unpublished_from = peer.n_items
            return self.publish_peer(peer_id)
        return self.publish_delta(peer_id)

    def publish_all(self) -> DisseminationReport:
        """Publish every peer; returns the merged dissemination report."""
        report = DisseminationReport()
        for peer_id in self.peers:
            report = report.merge(self.publish_peer(peer_id))
        return report

    # -- item-level conveniences ---------------------------------------------------

    def locate_item(self, item_id: int) -> tuple[HyperMPeer, np.ndarray]:
        """Find which peer holds ``item_id``; returns (peer, vector).

        A global-view convenience (the simulator knows all peers); in a
        real deployment the caller already holds the item it queries with.
        """
        for peer in self.peers.values():
            matches = np.flatnonzero(peer.item_ids == item_id)
            if matches.size:
                return peer, peer.data[int(matches[0])]
        raise ValidationError(f"no peer holds item {item_id}")

    def find_similar(self, item_id: int, k: int = 10, **kwargs):
        """'More like this': k-NN from an item already in the network.

        The holding peer issues the query (it has the vector), and the
        item itself is excluded from the result list.
        """
        peer, vector = self.locate_item(item_id)
        result = self.knn_query(
            vector, k + 1, origin_peer=peer.peer_id, **kwargs
        )
        result.items = [
            item for item in result.items if item.item_id != item_id
        ]
        return result

    # -- queries (delegates) -----------------------------------------------------

    def range_query(self, query: np.ndarray, epsilon: float, **kwargs):
        """Similarity range query — see :func:`repro.core.queries.range_query`."""
        from repro.core.queries import range_query

        return range_query(self, query, epsilon, **kwargs)

    def point_query(self, query: np.ndarray, **kwargs):
        """Exact-match query — see :func:`repro.core.queries.point_query`."""
        from repro.core.queries import point_query

        return point_query(self, query, **kwargs)

    def knn_query(self, query: np.ndarray, k: int, **kwargs):
        """k-nearest-neighbour query — see :func:`repro.core.knn.knn_query`."""
        from repro.core.knn import knn_query

        return knn_query(self, query, k, **kwargs)

    # -- introspection --------------------------------------------------------------

    def level_loads(self) -> dict[Level, dict[int, int]]:
        """Per-level ``{node_id: stored entries}`` (Figure 9's metric)."""
        return {level: overlay.loads() for level, overlay in self.overlays.items()}

    def stats(self) -> dict:
        """Structured network health summary.

        One call for dashboards and debugging: peers, publication
        state per level (spheres, replication factor, level-store health),
        and fabric totals. Replication accounting runs on the level
        store's stable entry ids: every live row is one distinct sphere
        (it exists exactly while some node holds it), and the replication
        factor is total holdings over live rows.
        """
        online = sum(1 for peer in self.peers.values() if peer.online)
        per_level = {}
        for level, overlay in self.overlays.items():
            loads = overlay.loads()
            stored = sum(loads.values())
            store = overlay.level_store
            distinct = store.n_live
            per_level[str(level)] = {
                "nodes": len(overlay.node_ids),
                "stored_entries": stored,
                "distinct_spheres": distinct,
                "replication_factor": (
                    stored / distinct if distinct else 0.0
                ),
                "store": store.health(),
            }
        summary = {
            "peers": self.n_peers,
            "online_peers": online,
            "total_items": self.total_items,
            "levels": per_level,
            "fabric": {
                "messages": self.fabric.metrics.total_messages,
                "hops": self.fabric.metrics.total_hops,
                "bytes": self.fabric.metrics.total_bytes,
                "energy": self.fabric.energy.total,
                "retransmits": self.fabric.metrics.total_retransmits,
                "duplicates": self.fabric.metrics.total_duplicates,
            },
            "energy": self.fabric.energy.snapshot(),
        }
        if self.adaptation is not None:
            summary["adaptation"] = self.adaptation.snapshot()
        return summary
