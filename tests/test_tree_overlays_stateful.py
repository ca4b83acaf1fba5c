"""Stateful property testing of the tree overlays (BATON and VBI).

Random interleavings of joins, departures, insertions, and range queries,
with global invariants checked after every step — the same harness that
exposed the CAN routing dead-end.
"""

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.overlay.baton import BatonNetwork
from repro.overlay.vbi import VBITree
from tests.rows import held_values

coords = st.floats(min_value=0.0, max_value=1.0)


class _TreeOverlayMachine(RuleBasedStateMachine):
    """Shared rules; subclasses pick the overlay under test."""

    overlay_factory = None

    def __init__(self):
        super().__init__()
        self.net = self.overlay_factory(2, rng=77)
        self.net.grow(3)
        self.inserted: dict[int, np.ndarray] = {}
        self.next_value = 0

    @rule()
    def join(self):
        self.net.join()

    @precondition(lambda self: len(self.net) > 3)
    @rule(pick=st.integers(min_value=0, max_value=10**6))
    def leave(self, pick):
        ids = self.net.node_ids
        self.net.leave(ids[pick % len(ids)])

    @rule(x=coords, y=coords, pick=st.integers(min_value=0, max_value=10**6))
    def insert_point(self, x, y, pick):
        ids = self.net.node_ids
        value = self.next_value
        self.next_value += 1
        key = np.array([x, y])
        self.net.insert(ids[pick % len(ids)], key, value)
        self.inserted[value] = key

    @rule(
        x=coords,
        y=coords,
        radius=st.floats(min_value=0.05, max_value=0.4),
    )
    def range_query_is_complete(self, x, y, radius):
        center = np.array([x, y])
        receipt = self.net.range_query(self.net.node_ids[0], center, radius)
        got = set(receipt.entries.values())
        for value, key in self.inserted.items():
            if float(np.linalg.norm(key - center)) <= radius - 1e-9:
                assert value in got, (value, key, center, radius)

    @invariant()
    def all_items_stored_somewhere(self):
        held = set()
        for nid in self.net.node_ids:
            held.update(held_values(self.net, nid))
        assert set(self.inserted) <= held

    @invariant()
    def every_point_routable(self):
        rng = np.random.default_rng(len(self.net))
        p = rng.random(2)
        start = self.net.node_ids[0]
        if isinstance(self.net, VBITree):
            owner, __ = self.net._locate(start, p)
            assert self.net.node(owner).region.contains(p)
        else:
            key = self.net.scalar_key(p)
            owner, __ = self.net._route(start, key)
            assert self.net.node(owner).owns(key)


class BatonMachine(_TreeOverlayMachine):
    overlay_factory = BatonNetwork

    @invariant()
    def ranges_partition_unit_interval(self):
        starts, ids = self.net._range_starts()
        assert starts[0] == 0.0
        nodes = [self.net.node(nid) for nid in ids]
        for a, b in zip(nodes, nodes[1:]):
            assert abs(a.range_hi - b.range_lo) < 1e-12
        assert abs(nodes[-1].range_hi - 1.0) < 1e-12


class VBIMachine(_TreeOverlayMachine):
    overlay_factory = VBITree

    @invariant()
    def regions_tile(self):
        assert abs(self.net.total_region_volume() - 1.0) < 1e-9

    @invariant()
    def managers_valid(self):
        for vn in self.net._tree.values():
            assert vn.manager_id in self.net._nodes


TestBatonStateful = BatonMachine.TestCase
TestBatonStateful.settings = settings(
    max_examples=15, stateful_step_count=20, deadline=None
)
TestVBIStateful = VBIMachine.TestCase
TestVBIStateful.settings = settings(
    max_examples=15, stateful_step_count=20, deadline=None
)
