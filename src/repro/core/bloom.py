"""Bloom-filter summaries — the design alternative the paper rejects.

Section 2.3 dismisses signature methods for Hyper-M's problem: "they do
not maintain locality … and the clusters that might be obtained give no
information about the appartenance of the original data items, because
the hash functions used are not reversible". This module implements that
rejected design so the argument can be *measured*: each peer publishes a
Bloom filter of its quantised item keys into a 1-d overlay keyed by peer.

What it can do: point(-ish) queries — check which peers' filters claim a
quantised key, then fetch. What it cannot do: similarity search — a query
vector that is *near* an item hashes to unrelated bits, so range/k-NN
recall collapses except for near-exact matches falling in the same
quantisation cell. The benchmark quantifies both sides.
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro.exceptions import ValidationError
from repro.utils.validation import check_matrix, check_positive, check_vector


class BloomFilter:
    """A classic Bloom filter over byte strings.

    Parameters
    ----------
    n_bits:
        Filter width in bits.
    n_hashes:
        Number of hash functions (derived double hashing: SHA-256 split).
    """

    def __init__(self, n_bits: int = 4096, n_hashes: int = 4):
        if n_bits < 8 or n_hashes < 1:
            raise ValidationError(
                "n_bits must be >= 8 and n_hashes >= 1"
            )
        self.n_bits = int(n_bits)
        self.n_hashes = int(n_hashes)
        self.bits = np.zeros(self.n_bits, dtype=bool)
        self.count = 0

    def _positions(self, key: bytes) -> list[int]:
        digest = hashlib.sha256(key).digest()
        h1 = int.from_bytes(digest[:8], "big")
        h2 = int.from_bytes(digest[8:16], "big") | 1
        return [
            (h1 + i * h2) % self.n_bits for i in range(self.n_hashes)
        ]

    def add(self, key: bytes) -> None:
        """Insert a key."""
        for pos in self._positions(key):
            self.bits[pos] = True
        self.count += 1

    def __contains__(self, key: bytes) -> bool:
        return all(self.bits[pos] for pos in self._positions(key))

    @property
    def size_bytes(self) -> int:
        """Wire size of the filter."""
        return self.n_bits // 8

    @property
    def fill_ratio(self) -> float:
        """Fraction of set bits (false-positive rate rises with it)."""
        return float(self.bits.mean())


def quantize_key(vector: np.ndarray, cells_per_dim: int = 8) -> bytes:
    """Quantise a unit-cube vector to a grid cell id (the hashable key).

    This is the only way to make continuous vectors hashable — and it is
    exactly where similarity dies: two vectors in adjacent cells share no
    key, however close they are.
    """
    v = check_vector(vector, "vector")
    cells = np.clip(
        (v * cells_per_dim).astype(np.int64), 0, cells_per_dim - 1
    )
    return cells.tobytes()


class BloomPublisher:
    """The rejected design, end to end: per-peer Bloom filters of item keys.

    Peers broadcast their filters once (one message per peer pair in a
    shared-space MANET); queries test the filters locally and fetch from
    claiming peers.
    """

    def __init__(
        self,
        dimensionality: int,
        *,
        n_bits: int = 4096,
        n_hashes: int = 4,
        cells_per_dim: int = 8,
    ):
        check_positive(dimensionality, "dimensionality")
        self.dimensionality = int(dimensionality)
        self.n_bits = n_bits
        self.n_hashes = n_hashes
        self.cells_per_dim = cells_per_dim
        self.filters: dict[int, BloomFilter] = {}
        self._peers: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self.bytes_published = 0

    def publish_peer(
        self, peer_id: int, data: np.ndarray, item_ids: np.ndarray
    ) -> BloomFilter:
        """Build and 'broadcast' one peer's filter; returns it."""
        data = check_matrix(data, "data", dim=self.dimensionality)
        bloom = BloomFilter(self.n_bits, self.n_hashes)
        for row in data:
            bloom.add(quantize_key(row, self.cells_per_dim))
        self.filters[peer_id] = bloom
        self._peers[peer_id] = (data, np.asarray(item_ids, dtype=np.int64))
        self.bytes_published += bloom.size_bytes
        return bloom

    def candidate_peers(self, query: np.ndarray) -> list[int]:
        """Peers whose filters claim the query's quantisation cell."""
        key = quantize_key(
            check_vector(query, "query", dim=self.dimensionality),
            self.cells_per_dim,
        )
        return [
            peer_id
            for peer_id, bloom in self.filters.items()
            if key in bloom
        ]

    def range_query(self, query: np.ndarray, epsilon: float) -> set:
        """Best-effort range query: fetch only from claiming peers.

        This is the structural failure the paper predicts: items within
        ``epsilon`` but in a different quantisation cell live on peers the
        filter check never surfaces.
        """
        hits: set[int] = set()
        for peer_id in self.candidate_peers(query):
            data, ids = self._peers[peer_id]
            dists = np.linalg.norm(data - query, axis=1)
            hits |= {int(i) for i in ids[dists <= epsilon + 1e-12]}
        return hits

    def point_query(self, query: np.ndarray) -> set:
        """Exact-match lookup (where Bloom filters are actually fine)."""
        hits: set[int] = set()
        for peer_id in self.candidate_peers(query):
            data, ids = self._peers[peer_id]
            dists = np.linalg.norm(data - query, axis=1)
            hits |= {int(i) for i in ids[dists <= 1e-9]}
        return hits
