"""Micro-benchmarks — throughput of the computational kernels.

These use pytest-benchmark's statistical timing (many rounds) rather than
the one-shot experiment harness: they answer "is the substrate fast
enough", not "does the paper's figure reproduce".
"""

import numpy as np
import pytest

from repro.clustering.kmeans import kmeans
from repro.geometry.intersection import intersection_fraction
from repro.overlay.can import CANNetwork
from repro.wavelets.haar import haar_decompose
from repro.wavelets.transform import wavedec


@pytest.fixture(scope="module")
def batch():
    return np.random.default_rng(0).random((1000, 512))


def test_micro_haar_decompose_batch(benchmark, batch):
    """Full 512-d averaging-Haar decomposition of 1,000 vectors."""
    benchmark(haar_decompose, batch)


def test_micro_db4_wavedec_batch(benchmark, batch):
    """Full 512-d db4 filter-bank decomposition of 1,000 vectors."""
    benchmark(wavedec, batch, "db4")


def test_micro_kmeans(benchmark, batch):
    """k-means (k=10) over 1,000 512-d vectors."""
    benchmark.pedantic(
        lambda: kmeans(batch, 10, rng=0), rounds=3, iterations=1
    )


def test_micro_intersection_fraction(benchmark):
    """One Eq. 7 lens-fraction evaluation in 8 dimensions."""
    benchmark(intersection_fraction, 1.0, 0.8, 1.2, 8)


def test_micro_can_insert(benchmark):
    """Point insertion into a 100-node, 64-d CAN."""
    can = CANNetwork(64, rng=0)
    ids = can.grow(100)
    rng = np.random.default_rng(1)
    keys = iter(rng.random((100_000, 64)))

    def insert_one():
        can.insert(ids[0], next(keys), None)

    benchmark.pedantic(insert_one, rounds=200, iterations=1)


def test_micro_can_range_query(benchmark):
    """Range query over a populated 100-node 2-d CAN."""
    can = CANNetwork(2, rng=2)
    ids = can.grow(100)
    rng = np.random.default_rng(3)
    for i, p in enumerate(rng.random((500, 2))):
        can.insert(ids[i % 100], p, i)
    centers = iter(rng.random((100_000, 2)))

    def query_one():
        can.range_query(ids[0], next(centers), 0.15)

    benchmark.pedantic(query_one, rounds=200, iterations=1)


def test_micro_intersection_fraction_batch(benchmark):
    """Eq. 7 over 10,000 sphere pairs at d=512 in one vectorized call."""
    from repro.geometry.batch import intersection_fraction_batch

    rng = np.random.default_rng(3)
    radii = rng.uniform(0.0, 0.4, 10_000)
    dists = rng.uniform(8.0, 10.5, 10_000)
    benchmark(intersection_fraction_batch, radii, 9.2, dists, 512)


def _populated_store(n: int, d: int, rng: np.random.Generator):
    from repro.core.results import ClusterRecord
    from repro.index import LevelStore

    store = LevelStore(d)
    membership = store.new_membership()
    keys = rng.random((n, d))
    for i in range(n):
        membership.add(store.add(
            keys[i],
            float(rng.uniform(0.0, 0.4)),
            ClusterRecord(
                peer_id=int(rng.integers(64)), items=10, level_name="A"
            ),
        ))
    return store, membership


def test_micro_level_scores_store(benchmark):
    """Batched Eq. 1 scoring of a 10,000-row candidate set at d=512,
    consumed zero-copy from the columnar level store (every peer's total
    taken, so the deferred kernel is inside the timing)."""
    from repro.core.scoring import level_scores

    rng = np.random.default_rng(4)
    store, membership = _populated_store(10_000, 512, rng)
    center = rng.random(512)
    rows = membership.rows()
    benchmark(
        lambda: level_scores(
            store.candidate_set(rows), center, 9.2
        ).totals()
    )


def test_micro_store_intersection_mask(benchmark):
    """One store-wide query intersection pass over 10,000 rows at d=512
    (the per-range-query filter every visited node's gather reuses)."""
    rng = np.random.default_rng(5)
    store, __ = _populated_store(10_000, 512, rng)
    center = rng.random(512)
    benchmark(store.intersection_mask, center, 9.2)
