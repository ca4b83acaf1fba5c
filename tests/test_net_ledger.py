"""The frame ledger: one write per frame; energy, metrics, load are views.

Differential tests of the fabric against :mod:`tests.ledger_oracle`,
which replays the three per-frame write formulas the fabric used to run
(sequential float adds for energy, per-kind counters, per-node load):
every integer exactly, every energy figure to 1e-12 relative.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ValidationError
from repro.faults.injector import Verdict
from repro.net import MessageKind, Network
from tests.ledger_oracle import (
    ReplayOracle,
    ScriptedInjector,
    fabric,
    kind_counts,
    load_records,
)

REL = 1e-12
KINDS = (
    MessageKind.INSERT, MessageKind.REPLICATE, MessageKind.RANGE_QUERY,
    MessageKind.DATA,
)


def _random_frames(seed: int, n_nodes: int, n_frames: int, lossy: bool):
    """Seeded ``(source, destination, kind, size, verdict)`` tuples."""
    rng = np.random.default_rng(seed)
    frames = []
    for __ in range(n_frames):
        source, destination = (int(v) for v in rng.integers(n_nodes, size=2))
        kind = KINDS[int(rng.integers(len(KINDS)))]
        size = int(rng.integers(0, 2000))
        verdict = Verdict()
        if lossy and rng.random() < 0.4:
            verdict = Verdict(
                delivered=bool(rng.random() < 0.6),
                copies=1 + int(rng.random() < 0.3),
                retransmits=int(rng.integers(0, 4)),
            )
        frames.append((source, destination, kind, size, verdict))
    return frames


def _drive(frames, n_nodes: int, lossy: bool):
    """Run ``frames`` through a fabric and through the replay oracle."""
    verdicts = [frame[4] for frame in frames] if lossy else None
    net = fabric(n_nodes, verdicts)
    oracle = ReplayOracle(net.energy.model)
    for i, (source, destination, kind, size, verdict) in enumerate(frames):
        net.transmit(source, destination, kind, size)
        oracle.frame(source, destination, kind, size, verdict)
        if i % 7 == 0:
            net.load.note_query_hit(destination)
            oracle.query_hit(destination)
    return net, oracle


@pytest.mark.parametrize("lossy", [False, True], ids=["clean", "lossy"])
@pytest.mark.parametrize("seed", [0, 1, 2])
class TestAgainstReplayOracle:
    N_NODES = 24
    N_FRAMES = 1500

    def _run(self, seed, lossy):
        frames = _random_frames(seed, self.N_NODES, self.N_FRAMES, lossy)
        if lossy:  # the sequence really exercises every fault bucket
            verdicts = [frame[4] for frame in frames]
            assert any(v.retransmits for v in verdicts)
            assert any(v.copies > 1 for v in verdicts)
            assert any(not v.delivered for v in verdicts)
        return _drive(frames, self.N_NODES, lossy)

    def test_integers_are_exact(self, seed, lossy):
        net, oracle = self._run(seed, lossy)
        assert kind_counts(net) == oracle.by_kind
        assert load_records(net) == oracle.load
        assert net.load.snapshot() == oracle.load_snapshot()
        assert list(net.load.per_node) == list(oracle.load)

    def test_energy_within_1e12(self, seed, lossy):
        net, oracle = self._run(seed, lossy)
        assert net.energy.total == pytest.approx(
            oracle.energy_total, rel=REL
        )
        per_node = net.energy.per_node
        assert set(per_node) == set(oracle.energy_per_node)
        for node_id, drain in oracle.energy_per_node.items():
            assert per_node[node_id] == pytest.approx(drain, rel=REL)
            assert net.energy.node_energy(node_id) == per_node[node_id]
        snapshot, expected = net.energy.snapshot(), oracle.energy_snapshot()
        assert snapshot["nodes_charged"] == expected["nodes_charged"]
        for key, value in expected.items():
            assert snapshot[key] == pytest.approx(value, rel=REL)

    def test_total_is_the_sum_over_nodes(self, seed, lossy):
        net, __ = self._run(seed, lossy)
        assert net.energy.total == pytest.approx(
            sum(net.energy.per_node.values()), rel=REL
        )


class TestViews:
    def test_a_query_hit_alone_bills_no_energy(self):
        net = fabric(3)
        net.load.note_query_hit(2)
        assert net.load.node_load(2).query_hits == 1
        assert net.energy.per_node == {}
        assert net.energy.node_energy(2) == 0.0
        assert net.energy.snapshot()["nodes_charged"] == 0

    def test_a_dropped_frame_still_bills_the_receivers_radio(self):
        net = fabric(2, [Verdict(delivered=False, retransmits=1)])
        net.transmit(0, 1, MessageKind.RANGE_QUERY, 100)
        model = net.energy.model
        assert net.load.node_load(1).msgs_in == 0
        assert net.energy.node_energy(1) == pytest.approx(
            2 * model.rx_cost(100), rel=REL
        )

    def test_a_duplicate_is_counted_by_the_load_but_never_billed(self):
        net = fabric(2, [Verdict(copies=2)])
        net.transmit(0, 1, MessageKind.INSERT, 100)
        model = net.energy.model
        assert net.load.node_load(0).msgs_out == 2
        assert net.energy.node_energy(0) == pytest.approx(
            model.tx_cost(100), rel=REL
        )
        assert net.energy.total == pytest.approx(
            model.hop_cost(100), rel=REL
        )

    def test_radio_corrections_stay_zero_on_a_clean_fabric(self):
        frames = _random_frames(5, 8, 200, lossy=False)
        net, __ = _drive(frames, 8, lossy=False)
        for row in net.load.per_node.values():
            assert (
                row.tx_msgs_adjust, row.tx_bytes_adjust,
                row.rx_msgs_adjust, row.rx_bytes_adjust,
            ) == (0, 0, 0, 0)

    def test_total_energy_reads_kinds_not_nodes(self):
        """``energy.total`` is O(kinds): 1e5 touched nodes, none visited."""

        class CountingLedger:
            """Counts every read the energy view makes of the load ledger."""

            visits = 0

            def __init__(self, ledger):
                self._ledger = ledger

            def __getattr__(self, name):
                CountingLedger.visits += 1
                return getattr(self._ledger, name)

        net = Network()
        net.register_many(range(100_002))
        net.transmit(0, 1, MessageKind.INSERT, 64)
        net.transmit(1, 0, MessageKind.DATA, 512)
        net.transmit_bulk(
            MessageKind.JOIN, range(2, 100_002), range(2, 100_002), 0
        )
        assert net.load.snapshot()["nodes"] == 100_002
        net.energy._load = CountingLedger(net.load)
        model = net.energy.model
        expected = (
            model.hop_cost(64) + model.hop_cost(512)
            + 100_000 * model.hop_cost(0)
        )
        assert net.energy.total == pytest.approx(expected, rel=REL)
        assert CountingLedger.visits == 0
        assert len(net.metrics.by_kind) == 3
        net.energy.snapshot()  # the per-node statistics do read the ledger
        assert CountingLedger.visits > 0


class TestBulkIsTheSameWrite:
    def test_bulk_equals_the_per_frame_loop_in_all_three_views(self):
        rng = np.random.default_rng(11)
        n_nodes, n_frames, size = 40, 3000, 72
        senders = rng.integers(n_nodes, size=n_frames)
        receivers = rng.integers(n_nodes, size=n_frames)
        bulk, loop = fabric(n_nodes), fabric(n_nodes)
        for net in (bulk, loop):  # earlier traffic the batch lands on
            net.transmit(3, 4, MessageKind.JOIN, 10)
        charged = bulk.transmit_bulk(
            MessageKind.INSERT, senders, receivers, size
        )
        for source, destination in zip(senders.tolist(), receivers.tolist()):
            loop.transmit(source, destination, MessageKind.INSERT, size)
        assert charged == n_frames
        assert kind_counts(bulk) == kind_counts(loop)
        assert bulk.metrics.snapshot() == loop.metrics.snapshot()
        assert load_records(bulk) == load_records(loop)
        assert bulk.load.snapshot() == loop.load.snapshot()
        assert bulk.energy.total == loop.energy.total
        assert bulk.energy.per_node == loop.energy.per_node
        assert bulk.energy.snapshot() == pytest.approx(
            loop.energy.snapshot(), rel=REL
        )

    def test_flight_recorded_bulk_is_one_edge_per_frame(self):
        """With the flight recorder on, every bulk frame is an edge of the
        open operation, and the ledger reads what the bulk write leaves."""
        from repro.obs.flight import FlightRecorder
        from repro.runtime import run_context

        senders, receivers = [0, 1, 2, 0, 5], [1, 2, 3, 3, 1]
        bulk, recorded = fabric(8), fabric(8)
        bulk.transmit_bulk(MessageKind.INSERT, senders, receivers, 10)
        flight = FlightRecorder(clock=lambda: 0.0)
        with run_context(flight=flight), flight.span("insert") as op:
            charged = recorded.transmit_bulk(
                MessageKind.INSERT, senders, receivers, 10
            )
            with pytest.raises(ValidationError, match="unknown destination"):
                recorded.transmit_bulk(MessageKind.INSERT, [0, 1], [2, 99], 10)
        assert charged == len(flight.edges) == op.hops == len(senders)
        assert [(e.source, e.dest) for e in flight.edges] == list(
            zip(senders, receivers)
        )
        assert kind_counts(recorded) == kind_counts(bulk)
        assert load_records(recorded) == load_records(bulk)
        assert recorded.energy.per_node == pytest.approx(
            bulk.energy.per_node, rel=REL
        )


    def test_an_empty_fabric_refuses_a_batch(self):
        net = Network()
        with pytest.raises(ValidationError, match="unknown source node 5"):
            net.transmit_bulk(MessageKind.INSERT, [5], [6], 8)
        assert net.load.per_node == {} and net.snapshot()["nodes"] == 0

    def test_a_fresh_scale_grid_batch_equals_the_per_frame_loop(self):
        """One level of the scale harness: 32 768 nodes registered as a
        block, two frames from each, charged in one batch."""
        n_nodes = 32_768
        ids = 1_000_000 + np.arange(n_nodes)
        senders = np.repeat(ids, 2)
        receivers = ids[np.random.default_rng(13).integers(n_nodes, size=senders.size)]
        bulk, loop = Network(), Network()
        for net in (bulk, loop):
            net.register_many(ids)
        bulk.transmit_bulk(MessageKind.INSERT, senders, receivers, 88)
        for source, destination in zip(senders.tolist(), receivers.tolist()):
            loop.transmit(source, destination, MessageKind.INSERT, 88)
        assert kind_counts(bulk) == kind_counts(loop)
        assert bulk.metrics.snapshot() == loop.metrics.snapshot()
        assert load_records(bulk) == load_records(loop)
        assert bulk.load.snapshot() == loop.load.snapshot()
        assert bulk.energy.total == loop.energy.total
        assert bulk.energy.per_node == loop.energy.per_node
        assert bulk.energy.snapshot() == pytest.approx(
            loop.energy.snapshot(), rel=REL
        )


class TestPathIsTheSameWrite:
    """``transmit_path`` against the per-frame ``transmit`` chain it replaces."""

    #: From node 0 with backtracking: 5 and 3 are re-entered, 0 revisited.
    BACKTRACK = [3, 5, 3, 7, 9, 7, 0, 11, 5]

    @staticmethod
    def _loop(net, kind, source, path, size):
        for sender, receiver in zip([source, *path], path):
            net.transmit(sender, receiver, kind, size)

    def _twins(self, path, size=96, **fabric_kwargs):
        chained, looped = fabric(16, **fabric_kwargs), fabric(16, **fabric_kwargs)
        for net in (chained, looped):  # earlier traffic the chain lands on
            net.transmit(4, 5, MessageKind.JOIN, 10)
        chained.transmit_path(MessageKind.INSERT, 0, path, size)
        self._loop(looped, MessageKind.INSERT, 0, path, size)
        return chained, looped

    def _assert_same_ledger(self, chained, looped):
        assert kind_counts(chained) == kind_counts(looped)
        assert chained.metrics.snapshot() == looped.metrics.snapshot()
        assert load_records(chained) == load_records(looped)
        assert list(chained.load.per_node) == list(looped.load.per_node)
        assert chained.energy.total == pytest.approx(
            looped.energy.total, rel=REL
        )
        for node_id, drain in looped.energy.per_node.items():
            assert chained.energy.per_node[node_id] == pytest.approx(
                drain, rel=REL
            )

    def test_backtracking_chain_equals_the_loop(self):
        self._assert_same_ledger(*self._twins(self.BACKTRACK))

    def test_rows_are_created_in_the_loops_order(self):
        # No earlier traffic: every row of the ledger is made by the chain.
        chained, looped = fabric(16), fabric(16)
        chained.transmit_path(MessageKind.LOOKUP, 2, self.BACKTRACK, 40)
        self._loop(looped, MessageKind.LOOKUP, 2, self.BACKTRACK, 40)
        assert list(chained.load.per_node) == [2, 3, 5, 7, 9, 0, 11]
        self._assert_same_ledger(chained, looped)

    def test_the_tracer_gets_the_loops_totals(self):
        from repro.obs.trace import TraceRecorder
        from repro.runtime import run_context

        counts = []
        for charge in ("path", "loop"):
            net, rec = fabric(16), TraceRecorder()
            with run_context(tracer=rec), rec.span("op"):
                if charge == "path":
                    net.transmit_path(MessageKind.INSERT, 0, self.BACKTRACK, 64)
                else:
                    self._loop(net, MessageKind.INSERT, 0, self.BACKTRACK, 64)
            counts.append(rec.spans[0].counts)
        assert counts[0] == counts[1] == {
            "messages": 9, "hops": 9, "bytes": 9 * 64,
        }

    def test_an_empty_path_charges_nothing(self):
        chained, looped = self._twins([])
        self._assert_same_ledger(chained, looped)
        assert list(kind_counts(chained)) == [MessageKind.JOIN]

    @pytest.mark.parametrize(
        "source, path, message",
        [
            (0, [1, 2, 99, 3], "unknown destination node 99"),
            (77, [1, 2], "unknown source node 77"),
        ],
    )
    def test_an_unknown_endpoint_raises_before_any_row(
        self, source, path, message
    ):
        net = fabric(8)
        with pytest.raises(ValidationError, match=message):
            net.transmit_path(MessageKind.INSERT, source, path, 64)
        assert kind_counts(net) == {}
        assert net.load.per_node == {}

    def test_a_negative_size_raises_before_any_row(self):
        net = fabric(8)
        with pytest.raises(ValidationError, match="size_bytes"):
            net.transmit_path(MessageKind.INSERT, 0, [1, 2], -1)
        assert net.load.per_node == {}

    def test_lossy_flight_recorded_chain_is_the_loop(self):
        """Under faults and the flight recorder every frame keeps its own
        verdict and edge: the same verdict stream, edges and ledger."""
        from repro.faults.plan import FaultPlan
        from repro.obs.flight import FlightRecorder
        from repro.runtime import run_context

        plan = FaultPlan(loss=0.1, duplication=0.02, seed=3)
        runs = []
        for charge in ("path", "loop"):
            net, flight = fabric(16), FlightRecorder(clock=lambda: 0.0)
            net.install_faults(plan)
            with run_context(flight=flight):
                for start in range(40):
                    path = [(start + step) % 16 for step in (3, 5, 3, 8)]
                    with flight.span("insert", origin=start % 16):
                        if charge == "path":
                            net.transmit_path(
                                MessageKind.INSERT, start % 16, path, 72
                            )
                        else:
                            self._loop(
                                net, MessageKind.INSERT, start % 16, path, 72
                            )
            runs.append((net, flight))
        (chained, chained_flight), (looped, looped_flight) = runs
        self._assert_same_ledger(chained, looped)
        assert chained.faults.snapshot() == looped.faults.snapshot()
        assert chained.faults.snapshot()["counters"]  # faults really fired
        assert chained_flight.to_records() == looped_flight.to_records()
        assert chained_flight.edges

    @staticmethod
    def _ledger(net):
        return (
            kind_counts(net), load_records(net), list(net.load.per_node),
            net.load.snapshot(),
        )

    def _refuse_bad_chains(self, net):
        with pytest.raises(ValidationError, match="unknown destination node 99"):
            net.transmit_path(MessageKind.INSERT, 0, [1, 2, 99], 10)
        with pytest.raises(ValidationError, match="unknown source node 77"):
            net.transmit_path(MessageKind.INSERT, 77, [1, 2], 10)
        with pytest.raises(ValidationError, match="size_bytes"):
            net.transmit_path(MessageKind.INSERT, 0, [1, 2], -1)

    def test_a_flight_recorded_chain_refuses_before_any_frame(self):
        from repro.obs.flight import FlightRecorder
        from repro.runtime import run_context

        net, flight = fabric(8), FlightRecorder(clock=lambda: 0.0)
        with run_context(flight=flight), flight.span("insert"):
            net.transmit(4, 5, MessageKind.JOIN, 10)
            edges, ledger = flight.to_records(), self._ledger(net)
            self._refuse_bad_chains(net)
            assert flight.to_records() == edges
        assert self._ledger(net) == ledger

    def test_a_lossy_chain_refuses_before_any_frame(self):
        from repro.faults.plan import FaultPlan

        net = fabric(8)
        net.install_faults(FaultPlan(loss=0.3, duplication=0.1, seed=3))
        net.transmit(4, 5, MessageKind.JOIN, 10)
        faults, ledger = net.faults.snapshot(), self._ledger(net)
        self._refuse_bad_chains(net)
        assert net.faults.snapshot() == faults
        assert self._ledger(net) == ledger


KINDS_ST = st.sampled_from(KINDS)
SIZES = st.integers(0, 1500)
VERDICTS = st.builds(
    Verdict,
    delivered=st.booleans(),
    copies=st.integers(1, 3),
    retransmits=st.integers(0, 3),
)
#: Ids a query hit may name before (or without) their registration.
LOOSE_IDS = st.integers(0, 15) | st.builds(
    lambda level, k: level * 1_000_000 + k, st.integers(1, 4), st.integers(0, 7)
)


class TestColumnLedgerProperty:
    """Any interleaving of the four writes, on ids registered one by one
    and in blocks at the scale grids' offsets, reads as the replay."""

    @staticmethod
    def _assert_replayed(net, oracle):
        assert kind_counts(net) == oracle.by_kind
        assert load_records(net) == oracle.load
        assert list(net.load.per_node) == list(oracle.load)
        assert net.load.snapshot() == oracle.load_snapshot()
        assert net.energy.total == pytest.approx(oracle.energy_total, rel=REL)
        per_node = net.energy.per_node
        assert set(per_node) == set(oracle.energy_per_node)
        for node_id, drain in oracle.energy_per_node.items():
            assert per_node[node_id] == pytest.approx(drain, rel=REL)
            assert net.energy.node_energy(node_id) == per_node[node_id]
        snapshot, expected = net.energy.snapshot(), oracle.energy_snapshot()
        assert snapshot["nodes_charged"] == expected["nodes_charged"]
        for key, value in expected.items():
            assert snapshot[key] == pytest.approx(value, rel=REL)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_any_interleaving_reads_as_the_replay(self, data):
        net = Network()
        oracle = ReplayOracle(net.energy.model)
        registered: list[int] = []
        next_level = 1
        for __ in range(data.draw(st.integers(1, 30))):
            step = data.draw(st.sampled_from(
                ["one", "block", "frame", "lossy", "path", "bulk", "hit"]
            ))
            if step == "one":
                node_id = data.draw(st.integers(0, 15))
                if node_id in registered:
                    with pytest.raises(ValidationError, match="already"):
                        net.register(node_id)
                    continue
                net.register(node_id)
                registered.append(node_id)
            elif step == "block":
                ids = next_level * 1_000_000 + np.arange(
                    data.draw(st.integers(1, 8))
                )
                next_level += 1
                net.register_many(ids)
                registered.extend(ids.tolist())
            elif step == "hit":
                node_id = data.draw(st.sampled_from(registered) | LOOSE_IDS
                                    if registered else LOOSE_IDS)
                n = data.draw(st.integers(0, 3))
                net.load.note_query_hit(node_id, n)
                oracle.query_hit(node_id, n)
            elif not registered:
                continue
            else:
                nodes = st.sampled_from(registered)
                kind, size = data.draw(KINDS_ST), data.draw(SIZES)
                if step == "frame":
                    source, destination = data.draw(nodes), data.draw(nodes)
                    assert net.transmit(source, destination, kind, size)
                    oracle.frame(source, destination, kind, size)
                elif step == "lossy":
                    source, destination = data.draw(nodes), data.draw(nodes)
                    verdict = data.draw(VERDICTS)
                    net.install_faults(ScriptedInjector([verdict]))
                    net.transmit(source, destination, kind, size)
                    net.install_faults(None)
                    oracle.frame(source, destination, kind, size, verdict)
                elif step == "path":
                    source = data.draw(nodes)
                    path = data.draw(st.lists(nodes, min_size=1, max_size=6))
                    net.transmit_path(kind, source, path, size)
                    for sender, receiver in zip([source, *path], path):
                        oracle.frame(sender, receiver, kind, size)
                else:
                    pairs = data.draw(st.lists(
                        st.tuples(nodes, nodes), min_size=1, max_size=10
                    ))
                    senders, receivers = (list(side) for side in zip(*pairs))
                    net.transmit_bulk(kind, senders, receivers, size)
                    oracle.bulk(senders, receivers, kind, size)
            self._assert_replayed(net, oracle)
        assert net.snapshot()["nodes"] == len(registered)
