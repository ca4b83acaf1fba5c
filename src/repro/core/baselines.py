"""Baselines the paper compares against.

* :class:`NaiveCANPublisher` — conventional CAN usage: every individual
  item is routed into an overlay whose key space is the item's original
  space (512-d in the paper's tests). This is the "CAN" series in
  Figures 8b/8c.
* :class:`TwoDimCANPublisher` — the paper's illustrative 2-d CAN that
  indexes only two of the item's coordinates ("though it cannot be used to
  retrieve meaningful data, it shows the magnitude of the performance
  gap").
* :class:`CentralizedIndex` — the exact flat-file index used as ground
  truth for precision/recall in Section 6.
"""

from __future__ import annotations

import numpy as np

from repro.core.results import RetrievedItem, distances_to_query
from repro.exceptions import ValidationError
from repro.net.network import Network
from repro.overlay.can import CANNetwork
from repro.utils.validation import check_matrix, check_unit_cube, check_vector


class ItemCANPublisher:
    """Publish raw items into a CAN keyed on their first ``key_dims`` coords.

    The general machinery behind both paper baselines: per-item greedy
    insertion, no summarisation, optional dimensionality truncation.
    """

    def __init__(
        self,
        dimensionality: int,
        key_dims: int | None = None,
        *,
        fabric: Network | None = None,
        rng=None,
    ):
        self.dimensionality = int(dimensionality)
        self.key_dims = int(key_dims) if key_dims is not None else self.dimensionality
        if not 1 <= self.key_dims <= self.dimensionality:
            raise ValidationError(
                f"key_dims must be in [1, {self.dimensionality}], got {self.key_dims}"
            )
        self.fabric = fabric if fabric is not None else Network()
        self.overlay = CANNetwork(self.key_dims, fabric=self.fabric, rng=rng)
        self._peer_node: dict[int, int] = {}

    def add_peer(self, peer_id: int) -> int:
        """Join one overlay node on behalf of ``peer_id``."""
        node_id = self.overlay.join()
        self._peer_node[peer_id] = node_id
        return node_id

    def publish_items(
        self, peer_id: int, data: np.ndarray, item_ids: np.ndarray
    ) -> tuple[int, int]:
        """Insert every item individually; returns (items, total hops)."""
        data = check_unit_cube(
            check_matrix(data, "data", dim=self.dimensionality), "data"
        )
        item_ids = np.asarray(item_ids, dtype=np.int64)
        origin = self._peer_node[peer_id]
        hops = 0
        for row, item_id in zip(data, item_ids):
            receipt = self.overlay.insert(
                origin, row[: self.key_dims], (peer_id, int(item_id))
            )
            hops += receipt.total_hops
        return data.shape[0], hops

    def range_query(
        self, origin_peer: int, query: np.ndarray, epsilon: float
    ) -> tuple[set, int]:
        """Overlay range query on the truncated key; returns (item ids, hops).

        With ``key_dims == dimensionality`` results are exact; with fewer
        key dims they are a superset filtered client-side — mirroring why
        the paper calls the 2-d CAN unusable for meaningful retrieval.
        """
        query = check_vector(query, "query", dim=self.dimensionality)
        origin = self._peer_node[origin_peer]
        receipt = self.overlay.range_query(
            origin, query[: self.key_dims], epsilon
        )
        ids = {item_id for __, item_id in receipt.entries.values()}
        return ids, receipt.total_hops


class NaiveCANPublisher(ItemCANPublisher):
    """Conventional CAN: one insertion per item, full dimensionality."""

    def __init__(self, dimensionality: int, *, fabric=None, rng=None):
        super().__init__(dimensionality, None, fabric=fabric, rng=rng)


class TwoDimCANPublisher(ItemCANPublisher):
    """The paper's 2-d CAN baseline: index only the first two coordinates."""

    def __init__(self, dimensionality: int, *, fabric=None, rng=None):
        if dimensionality < 2:
            raise ValidationError("TwoDimCANPublisher needs >= 2-d items")
        super().__init__(dimensionality, 2, fabric=fabric, rng=rng)


class CentralizedIndex:
    """Exact flat index over the global dataset — the recall ground truth."""

    def __init__(self, data: np.ndarray, item_ids: np.ndarray, peer_ids=None):
        self.data = check_matrix(data, "data")
        self.item_ids = np.asarray(item_ids, dtype=np.int64)
        if self.item_ids.shape[0] != self.data.shape[0]:
            raise ValidationError("item_ids length does not match data rows")
        if len(set(self.item_ids.tolist())) != self.item_ids.shape[0]:
            raise ValidationError("item_ids must be unique")
        if peer_ids is None:
            peer_ids = np.full(self.data.shape[0], -1, dtype=np.int64)
        self.peer_ids = np.asarray(peer_ids, dtype=np.int64)

    @classmethod
    def from_network(cls, network) -> "CentralizedIndex":
        """Build the ground-truth index over everything peers currently hold."""
        return cls._from_peers(network.peers.values())

    @classmethod
    def from_network_online_only(cls, network) -> "CentralizedIndex":
        """Ground truth restricted to *online* peers' items.

        After churn, items on departed peers are unreachable by any means;
        recall should be judged against what a perfect system could still
        retrieve.
        """
        return cls._from_peers(
            peer for peer in network.peers.values() if peer.online
        )

    @classmethod
    def _from_peers(cls, peers) -> "CentralizedIndex":
        blocks, ids, owners = [], [], []
        for peer in peers:
            blocks.append(peer.data)
            ids.append(peer.item_ids)
            owners.append(np.full(peer.n_items, peer.peer_id, dtype=np.int64))
        if not blocks:
            raise ValidationError("network has no (matching) peers")
        return cls(np.vstack(blocks), np.concatenate(ids), np.concatenate(owners))

    @property
    def n_items(self) -> int:
        """Number of indexed items."""
        return int(self.data.shape[0])

    def range_search(self, query: np.ndarray, epsilon: float) -> set:
        """Ids of all items within ``epsilon`` of ``query`` (exact)."""
        query = check_vector(query, "query", dim=self.data.shape[1])
        dists = distances_to_query(self.data, query)
        return {int(i) for i in self.item_ids[dists <= epsilon + 1e-12]}

    def knn(self, query: np.ndarray, k: int) -> set:
        """Ids of the ``k`` exact nearest neighbours (distance, id ties)."""
        query = check_vector(query, "query", dim=self.data.shape[1])
        if k < 1:
            raise ValidationError(f"k must be >= 1, got {k}")
        dists = distances_to_query(self.data, query)
        k = min(k, dists.shape[0])
        order = np.lexsort((self.item_ids, dists))[:k]
        return {int(i) for i in self.item_ids[order]}

    def knn_items(self, query: np.ndarray, k: int) -> list[RetrievedItem]:
        """The ``k`` nearest neighbours with distances and owners."""
        query = check_vector(query, "query", dim=self.data.shape[1])
        dists = distances_to_query(self.data, query)
        k = min(max(k, 1), dists.shape[0])
        order = np.lexsort((self.item_ids, dists))[:k]
        return [
            RetrievedItem(
                item_id=int(self.item_ids[i]),
                peer_id=int(self.peer_ids[i]),
                distance=float(dists[i]),
            )
            for i in order
        ]
