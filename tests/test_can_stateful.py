"""Stateful property testing of the CAN overlay.

Hypothesis drives random interleavings of joins, departures, point and
sphere insertions, and range queries, checking after every step that the
overlay's global invariants hold:

* zones tile the key space exactly (volume 1, unique owner per point);
* neighbour tables are symmetric and geometrically correct;
* every inserted object remains retrievable by a range query;
* routing reaches the true owner from any start node;
* the zone table (built by the routing invariant after every step, so a
  mutation that forgot to drop it leaves it stale) lists exactly the
  current zones, and every neighbour snapshot equals that neighbour's
  current zone set — the property that lets one table replace them.
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

from repro.overlay.can import CANNetwork
from repro.overlay.can.routing import route_to_owner
from tests.can_reference import table_is_current

coords = st.floats(min_value=0.0, max_value=1.0)


class CANMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.can = CANNetwork(2, rng=1234)
        self.can.grow(2)
        self.inserted: dict[int, np.ndarray] = {}
        self.next_value = 0

    # -- actions ---------------------------------------------------------

    @rule(x=coords, y=coords)
    def join(self, x, y):
        self.can.join(np.array([x, y]))

    @precondition(lambda self: len(self.can) > 2)
    @rule(pick=st.integers(min_value=0, max_value=10**6))
    def leave(self, pick):
        ids = self.can.node_ids
        self.can.leave(ids[pick % len(ids)])

    @rule(
        pick=st.integers(min_value=0, max_value=10**6),
        fraction=st.sampled_from([0.5, 0.3]),
    )
    def rebalance(self, pick, fraction):
        ids = self.can.node_ids
        self.can.rebalance_zone(ids[pick % len(ids)], fraction=fraction)

    @rule(x=coords, y=coords, pick=st.integers(min_value=0, max_value=10**6))
    def insert_point(self, x, y, pick):
        ids = self.can.node_ids
        origin = ids[pick % len(ids)]
        value = self.next_value
        self.next_value += 1
        key = np.array([x, y])
        self.can.insert(origin, key, value)
        self.inserted[value] = key

    @rule(
        x=coords,
        y=coords,
        radius=st.floats(min_value=0.01, max_value=0.3),
        pick=st.integers(min_value=0, max_value=10**6),
    )
    def insert_sphere(self, x, y, radius, pick):
        ids = self.can.node_ids
        origin = ids[pick % len(ids)]
        value = self.next_value
        self.next_value += 1
        key = np.array([x, y])
        self.can.insert(origin, key, value, radius=radius)
        self.inserted[value] = key

    @rule(
        x=coords,
        y=coords,
        radius=st.floats(min_value=0.05, max_value=0.5),
    )
    def range_query_is_complete(self, x, y, radius):
        center = np.array([x, y])
        receipt = self.can.range_query(self.can.node_ids[0], center, radius)
        got = set(receipt.entries.values())
        for value, key in self.inserted.items():
            if float(np.linalg.norm(key - center)) <= radius - 1e-9:
                assert value in got, (value, key, center, radius)

    # -- invariants --------------------------------------------------------

    @invariant()
    def zones_tile(self):
        assert abs(self.can.total_zone_volume() - 1.0) < 1e-9

    @invariant()
    def unique_owner(self):
        rng = np.random.default_rng(len(self.can))
        for __ in range(3):
            p = rng.random(2)
            owners = [
                nid
                for nid, zones in self.can.all_zones().items()
                if any(z.contains(p) for z in zones)
            ]
            assert len(owners) == 1, (p, owners)

    @invariant()
    def neighbors_symmetric(self):
        for nid in self.can.node_ids:
            node = self.can.node(nid)
            for neighbor_id in node.neighbors:
                assert nid in self.can.node(neighbor_id).neighbors

    @invariant()
    def routing_reaches_owner(self):
        rng = np.random.default_rng(7 + len(self.can))
        p = rng.random(2)
        expected = self.can.owner_of(p)
        start = self.can.node_ids[0]
        owner, __ = route_to_owner(self.can, start, p)
        assert owner == expected

    @invariant()
    def zone_table_is_current(self):
        assert table_is_current(self.can)

    @invariant()
    def neighbor_snapshots_are_current(self):
        for nid in self.can.node_ids:
            for neighbor_id, snapshot in self.can.node(nid).neighbors.items():
                current = self.can.node(neighbor_id).zones
                assert len(snapshot) == len(current)
                for seen, zone in zip(snapshot, current):
                    assert np.array_equal(seen.lows, zone.lows)
                    assert np.array_equal(seen.highs, zone.highs)


TestCANStateful = CANMachine.TestCase
TestCANStateful.settings = settings(
    max_examples=20, stateful_step_count=25, deadline=None
)
