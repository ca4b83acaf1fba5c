"""Kademlia backend specifics: XOR routing, k-buckets, range owners.

The generic behaviour is already pinned by the parametrised contract
suite (``tests/test_overlay_contract.py``); these tests cover what is
unique to the XOR DHT — routing exactness of the α-concurrent iterative
lookup, k-bucket structure, the exact binary-trie owner enumeration
behind range queries, churn-driven re-homing, and the adaptation plane.
"""

import numpy as np
import pytest

from repro.overlay.kademlia import (
    K_BUCKET_SIZE,
    KademliaNetwork,
    LOOKUP_CONCURRENCY,
)
from tests.rows import held_values


@pytest.fixture
def net():
    overlay = KademliaNetwork(2, rng=7)
    overlay.grow(16)
    return overlay


class TestIdentity:
    def test_kad_ids_distinct_and_in_range(self, net):
        ids = [net.kad_id(nid) for nid in net.node_ids]
        assert len(set(ids)) == len(ids)
        assert all(0 <= kid < net._key_space for kid in ids)

    def test_constants(self):
        assert K_BUCKET_SIZE == 20
        assert LOOKUP_CONCURRENCY == 3


class TestBuckets:
    def test_bucket_index_is_shared_prefix(self, net):
        origin = net.node_ids[0]
        kad = net.kad_id(origin)
        for index, bucket in enumerate(net.buckets(origin)):
            for member in bucket:
                distance = kad ^ net.kad_id(member)
                assert distance.bit_length() - 1 == index

    def test_buckets_cover_every_other_member(self, net):
        # Well under K_BUCKET_SIZE members per bucket, so nothing is
        # evicted: the union of one node's buckets is everyone else.
        origin = net.node_ids[0]
        seen = {m for bucket in net.buckets(origin) for m in bucket}
        assert seen == set(net.node_ids) - {origin}

    def test_bucket_capacity_respected(self, net):
        net.grow(30)
        for nid in net.node_ids:
            for bucket in net.buckets(nid):
                assert len(bucket) <= K_BUCKET_SIZE


class TestRouting:
    def test_iterative_lookup_is_exact(self, net):
        rng = np.random.default_rng(3)
        for code in rng.integers(0, net._key_space, size=100):
            owner, probes = net._iterative_lookup(
                net.node_ids[0], int(code)
            )
            assert owner == net._owner_of_code(int(code))
            assert len(probes) >= 1

    def test_lookup_charges_traffic(self, net):
        before = net.fabric.metrics.total_messages
        net.insert(net.node_ids[0], [0.4, 0.6], "x")
        assert net.fabric.metrics.total_messages > before

    def test_owners_of_range_matches_brute_force(self, net):
        rng = np.random.default_rng(5)
        for __ in range(50):
            lo = int(rng.integers(0, net._key_space - 1))
            hi = int(rng.integers(lo, min(lo + 4096, net._key_space - 1)))
            want = {
                net._owner_of_code(code) for code in range(lo, hi + 1)
            }
            assert net._owners_of_range(lo, hi) == want

    def test_owners_of_full_range_is_everyone(self, net):
        assert net._owners_of_range(0, net._key_space - 1) == set(
            net.node_ids
        )


class TestChurn:
    def _fill(self, net, count=30):
        rng = np.random.default_rng(11)
        points = rng.random((count, 2))
        for i, p in enumerate(points):
            net.insert(
                net.node_ids[i % len(net.node_ids)], p, i, radius=0.05
            )
        return points

    def test_leave_rehomes_rows(self, net):
        self._fill(net)
        for __ in range(5):
            net.leave(net.node_ids[-1])
        held = {
            value
            for nid in net.node_ids
            for value in held_values(net, nid)
            if isinstance(value, int)
        }
        assert held == set(range(30))
        net.level_store.verify_integrity()

    def test_ownership_exact_after_churn(self, net):
        self._fill(net)
        for __ in range(4):
            net.leave(net.node_ids[-1])
        net.grow(3)
        rng = np.random.default_rng(13)
        for code in rng.integers(0, net._key_space, size=30):
            owner, __ = net._iterative_lookup(net.node_ids[0], int(code))
            assert owner == net._owner_of_code(int(code))

    def test_range_query_complete_after_churn(self, net):
        points = self._fill(net)
        for __ in range(4):
            net.leave(net.node_ids[-1])
        net.grow(2)
        center = np.array([0.5, 0.5])
        radius = 0.35
        receipt = net.range_query(net.node_ids[0], center, radius)
        got = {v for v in receipt.entries.values() if isinstance(v, int)}
        want = {
            i
            for i, p in enumerate(points)
            if np.linalg.norm(p - center) <= radius - 1e-9
        }
        assert want <= got


class TestAdaptationPlane:
    def test_rebalance_hot_moves_rows(self, net):
        rng = np.random.default_rng(17)
        for i in range(40):
            net.insert(net.node_ids[0], rng.random(2), i)
        loads = net.loads()
        hot = max(loads, key=lambda nid: (loads[nid], nid))
        if loads[hot] < 2:
            pytest.skip("no node hot enough to split")
        target = net.rebalance_hot(hot)
        assert target in net.node_ids
        # A DHT rebalance is bulk replication: the XOR-nearest peer now
        # holds every row the hot node holds (ownership stays put).
        hot_rows = set(net.node(hot).membership.rows().tolist())
        target_rows = set(net.node(target).membership.rows().tolist())
        assert hot_rows <= target_rows
        # Replication, not handoff: the hot node keeps serving its rows.
        assert net.loads()[hot] == loads[hot]
        held = {
            value
            for nid in net.node_ids
            for value in held_values(net, nid)
            if isinstance(value, int)
        }
        assert held == set(range(40))

    def test_boost_and_shed_replication(self, net):
        net.insert(net.node_ids[0], [0.5, 0.5], "hot", radius=0.1)
        row = next(
            int(r)
            for nid in net.node_ids
            for r in net.node(nid).membership.rows()
            if net.level_store.value_of(r) == "hot"
        )
        holders_before = sum(
            1 for nid in net.node_ids
            if row in net.node(nid).membership
        )
        added = net.boost_replication(row, 2)
        assert len(added) == 2
        dropped = net.shed_replication(row)
        holders_after = sum(
            1 for nid in net.node_ids
            if row in net.node(nid).membership
        )
        assert holders_after == holders_before + len(added) - len(dropped)
        assert holders_after >= 1
        # Shedding never drops the row below its required targets.
        for target in net._row_targets(row):
            assert row in net.node(target).membership
