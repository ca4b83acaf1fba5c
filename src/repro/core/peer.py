"""A Hyper-M peer: local items, summaries, and direct-retrieval handlers."""

from __future__ import annotations

import numpy as np

from repro.clustering.incremental import (
    EpochClusterState,
    LevelDelta,
    SummaryDelta,
)
from repro.clustering.summaries import PeerSummary, summarize_peer_data
from repro.core.results import RetrievedItem, distances_to_query
from repro.exceptions import ValidationError
from repro.index.store import _BOUNDARY_BAND
from repro.utils.validation import check_matrix, check_unit_cube, check_vector


def _row_norms_sq(data: np.ndarray) -> np.ndarray:
    """``‖x‖²`` of every row (the constant term of the search prefilter)."""
    return np.einsum("ij,ij->i", data, data)


class HyperMPeer:
    """One participant: owns items, publishes summaries, serves retrievals.

    Parameters
    ----------
    peer_id:
        Network-unique identifier.
    data:
        ``(n, d)`` item matrix, ``d`` a power of two, coordinates in the
        unit cube.
    item_ids:
        Global item identifiers (defaults to ``range(n)``; must be unique
        across the network for meaningful precision/recall).
    """

    def __init__(
        self,
        peer_id: int,
        data: np.ndarray,
        item_ids: np.ndarray | None = None,
    ):
        data = check_unit_cube(check_matrix(data, "data"), "data")
        if item_ids is None:
            item_ids = np.arange(data.shape[0], dtype=np.int64)
        item_ids = np.asarray(item_ids, dtype=np.int64)
        if item_ids.shape[0] != data.shape[0]:
            raise ValidationError(
                f"item_ids has {item_ids.shape[0]} entries for "
                f"{data.shape[0]} items"
            )
        self.peer_id = int(peer_id)
        self.data = data
        #: ``‖x‖²`` per row of ``data``, kept in step with it by the only
        #: three places that assign ``data`` (here, ``add_items``,
        #: ``remove_items``); :meth:`range_search` prefilters with it.
        self._data_sq = _row_norms_sq(data)
        self.item_ids = item_ids
        #: Bumped by every change to the held items (``add_items``,
        #: ``remove_items``): a :meth:`scan`'s hits stay exact while it
        #: holds. Publishing neither reads nor moves it.
        self.items_version = 0
        self.summary: PeerSummary | None = None
        #: Items added after publication (Figure 10c staleness experiments):
        #: visible to direct retrieval, invisible to the published index.
        self.unpublished_from = data.shape[0]
        #: Publication epoch: bumps whenever a publish round actually
        #: changed the peer's published state (delta or full).
        self.epoch = 0
        #: Live incremental clustering of the published prefix (None until
        #: the first publication); drives the epoch/delta publish path.
        self.epoch_state: EpochClusterState | None = None
        #: MANET churn: an offline peer's published summaries linger in the
        #: overlays, but direct retrieval from it fails.
        self.online = True

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "online" if self.online else "offline"
        published = self.unpublished_from
        return (
            f"HyperMPeer(id={self.peer_id}, items={self.n_items}, "
            f"published={published}, {state})"
        )

    # -- summaries -----------------------------------------------------------

    @property
    def n_items(self) -> int:
        """Number of items currently held (published + post-hoc)."""
        return int(self.data.shape[0])

    @property
    def dimensionality(self) -> int:
        """Item dimensionality."""
        return int(self.data.shape[1])

    def build_summary(
        self, *, n_clusters: int, levels_used: int, rng=None, n_init: int = 1
    ) -> PeerSummary:
        """Decompose + cluster the peer's *published* items (steps i1–i2)."""
        published = self.data[: self.unpublished_from]
        if published.shape[0] == 0:
            raise ValidationError(f"peer {self.peer_id} has no items to summarise")
        self.summary = summarize_peer_data(
            published,
            n_clusters=n_clusters,
            levels_used=levels_used,
            rng=rng,
            n_init=n_init,
        )
        return self.summary

    def adopt_full_summary(self, summary: PeerSummary) -> None:
        """Reset epoch bookkeeping around a freshly built *full* summary.

        Called after a full clustering round (first publication, forced
        republish, restored summary): the incremental epoch state restarts
        from this summary, continuing the per-level sid numbering so
        sphere ids never collide across epochs. A summary whose labels do
        not cover the published prefix (e.g. restored from a foreign
        snapshot) leaves ``epoch_state`` unset — the next delta round
        simply bootstraps with a full re-clustering.
        """
        self.summary = summary
        sid_start = self.epoch_state.sid_high if self.epoch_state else 0
        try:
            state = EpochClusterState(summary, sid_start=sid_start)
        except (ValidationError, KeyError):
            state = None
        if state is not None and state.n_published != self.unpublished_from:
            state = None
        self.epoch_state = state
        self.epoch += 1

    def build_delta(
        self,
        *,
        n_clusters: int,
        levels_used: int,
        rng=None,
        n_init: int = 1,
        force_full: bool = False,
    ) -> SummaryDelta:
        """Fold every pending mutation into the clustering; return the diff.

        Advances the publication horizon over all currently held items.
        The first call (or one after epoch bookkeeping was lost) runs a
        full clustering and returns a degenerate insert-everything delta;
        later calls return the incremental diff maintained by
        :class:`repro.clustering.incremental.EpochClusterState`, falling
        back to a full re-clustering past the drift threshold or when
        ``force_full`` is set.
        """
        horizon = self.n_items
        if horizon == 0:
            raise ValidationError(
                f"peer {self.peer_id} has no items to summarise"
            )
        state = self.epoch_state
        if (
            state is None
            or len(state.levels) != levels_used
            or state.dimensionality != self.dimensionality
        ):
            self.unpublished_from = horizon
            summary = summarize_peer_data(
                self.data,
                n_clusters=n_clusters,
                levels_used=levels_used,
                rng=rng,
                n_init=n_init,
            )
            self.adopt_full_summary(summary)
            state = self.epoch_state
            per_level = {
                level: LevelDelta(
                    updated={},
                    inserted=dict(state.spheres[level]),
                    removed=(),
                )
                for level in state.levels
            }
            return SummaryDelta(
                dimensionality=self.dimensionality,
                levels=state.levels,
                per_level=per_level,
                full=True,
                items_covered=horizon,
                items_added=horizon,
                items_removed=0,
            )
        delta = state.build_delta(
            self.data[:horizon],
            self.unpublished_from,
            n_clusters=n_clusters,
            rng=rng,
            n_init=n_init,
            force_full=force_full,
        )
        self.summary = state.to_summary()
        self.unpublished_from = horizon
        if not delta.is_empty:
            self.epoch += 1
        return delta

    def add_items(
        self, new_data: np.ndarray, new_ids: np.ndarray
    ) -> None:
        """Append items *without republishing* (post-creation inserts).

        Models the paper's Figure 10c scenario: during the network's short
        lifetime new items arrive after the overlay is built; summaries go
        stale and recall degrades for those items. Rejects item ids the
        peer already holds — a silent duplicate would double-count the
        item in precision/recall accounting.
        """
        new_data = check_unit_cube(
            check_matrix(new_data, "new_data", dim=self.dimensionality), "new_data"
        )
        new_ids = np.asarray(new_ids, dtype=np.int64)
        if new_ids.shape[0] != new_data.shape[0]:
            raise ValidationError("new_ids length does not match new_data rows")
        if np.unique(new_ids).shape[0] != new_ids.shape[0]:
            raise ValidationError("new_ids contains duplicate item ids")
        collisions = np.intersect1d(new_ids, self.item_ids)
        if collisions.size:
            raise ValidationError(
                f"peer {self.peer_id} already holds item id(s) "
                f"{collisions[:5].tolist()}"
            )
        self.data = np.vstack([self.data, new_data])
        self._data_sq = np.concatenate(
            [self._data_sq, _row_norms_sq(new_data)]
        )
        self.item_ids = np.concatenate([self.item_ids, new_ids])
        self.items_version += 1

    def remove_items(self, item_ids) -> int:
        """Drop held items by id; returns how many were removed.

        Removals of *published* items are recorded in the epoch state so
        the next delta publication round shrinks (or retires) the spheres
        that summarised them; unpublished items simply vanish. Unknown
        ids raise.
        """
        ids = np.unique(np.asarray(item_ids, dtype=np.int64))
        if ids.size == 0:
            return 0
        positions = np.flatnonzero(np.isin(self.item_ids, ids))
        if positions.size != ids.size:
            missing = np.setdiff1d(ids, self.item_ids[positions])
            raise ValidationError(
                f"peer {self.peer_id} does not hold item id(s) "
                f"{missing[:5].tolist()}"
            )
        published = positions[positions < self.unpublished_from]
        if self.epoch_state is not None and published.size:
            self.epoch_state.note_removals(published)
        self.data = np.delete(self.data, positions, axis=0)
        self._data_sq = np.delete(self._data_sq, positions)
        self.item_ids = np.delete(self.item_ids, positions)
        self.items_version += 1
        self.unpublished_from -= int(published.size)
        return int(positions.size)

    # -- direct retrieval (query phase s3) -------------------------------------

    def range_search(self, query: np.ndarray, radius: float) -> list[RetrievedItem]:
        """Exact local range search over *all* held items.

        This is the second query phase: once a peer is contacted directly,
        it filters with the original query, which is why Hyper-M's range
        precision is 100%. The one-column case of :meth:`scan`.
        """
        query = check_vector(query, "query", dim=self.dimensionality)
        return self.scan(query[None, :], np.array([radius], dtype=np.float64))[0]

    def scan(self, queries: np.ndarray, radii: np.ndarray) -> list[list]:
        """:meth:`range_search` of each validated ``(B, d)`` query row.

        Most contacted peers hold nothing in range, so the scan is the
        index mask kernel's idiom: one GEMM ``‖x‖² − 2 X·Qᵀ + ‖q‖²`` over
        every row, widened by the store's ``_BOUNDARY_BAND``, then the
        exact :func:`~repro.core.results.distances_to_query` on the
        survivors only. The expansion loses ~``eps·√d·(‖x‖ + ‖q‖)²`` on
        d² to cancellation (≈ 5e-12 at d = 512 in the unit cube), well
        under the band's reach even at ``radius = 0`` (1e-5² =
        1e-10; docs/performance.md has the bound), so no row within
        ``radius + 1e-12`` is dropped; what each query gets — ids, row
        order, distances — is bit for bit the full scan's.
        """
        d2 = self._data_sq - 2.0 * (queries @ self.data.T)
        d2 += _row_norms_sq(queries)[:, None]
        reach = radii + _BOUNDARY_BAND
        column, near = np.nonzero(d2 <= (reach * reach)[:, None])
        found: list[list] = [[] for __ in range(radii.size)]
        if not near.size:
            return found
        dists = distances_to_query(self.data[near], queries[column])
        keep = dists <= radii[column] + 1e-12
        for query, item_id, distance in zip(
            column[keep].tolist(), self.item_ids[near[keep]].tolist(),
            dists[keep].tolist(), strict=True,
        ):
            found[query].append(RetrievedItem(
                item_id=item_id, peer_id=self.peer_id, distance=distance
            ))
        return found

    def nearest_items(self, query: np.ndarray, count: int) -> list[RetrievedItem]:
        """The peer's ``count`` closest items to ``query`` (Figure 5 step 9)."""
        query = check_vector(query, "query", dim=self.dimensionality)
        if count <= 0:
            return []
        dists = distances_to_query(self.data, query)
        count = min(count, dists.shape[0])
        order = np.argpartition(dists, count - 1)[:count]
        order = order[np.argsort(dists[order])]
        return [
            RetrievedItem(
                item_id=int(self.item_ids[i]),
                peer_id=self.peer_id,
                distance=float(dists[i]),
            )
            for i in order
        ]
