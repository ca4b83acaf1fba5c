"""Tests for the flight recorder: ring semantics, reconstruction, and the
edge-count ⇔ metrics-hops invariant.

The load-bearing contract (ISSUE 6 acceptance): with flight recording
enabled, **any** publish/query operation reconstructs into a routing
tree whose primary edge count equals the hops
:class:`repro.net.metrics.NetworkMetrics` reports for that operation —
including under a lossy :class:`repro.faults.FaultPlan`, where drops,
retries, and duplicates appear as *tagged* edges, never as holes.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import runtime
from repro.core.network import HyperMConfig, HyperMNetwork
from repro.exceptions import ValidationError
from repro.faults import FaultPlan
from repro.net.messages import MessageKind
from repro.obs.flight import FlightRecorder
from repro.obs.trace import NULL_RECORDER, NULL_SPAN, NullRecorder, read_jsonl


class _Ticker:
    """Deterministic injectable clock: 0.0, 1.0, 2.0, ..."""

    def __init__(self) -> None:
        self.now = -1.0

    def __call__(self) -> float:
        self.now += 1.0
        return self.now


class TestOperations:
    def test_root_operation_is_its_own_trace(self):
        rec = FlightRecorder(clock=_Ticker())
        with rec.span("publish", peer=3) as op:
            assert op.trace_id == op.span_id
            assert op.parent_id is None
        assert rec.ops == [op]
        assert op.attrs == {"peer": 3}
        assert op.end is not None and op.end > op.start

    def test_children_inherit_root_trace_id(self):
        rec = FlightRecorder(clock=_Ticker())
        with rec.span("publish") as root:
            with rec.span("insert") as child:
                with rec.span("range_query") as grandchild:
                    assert grandchild.trace_id == root.span_id
            assert child.trace_id == root.span_id
            assert child.parent_id == root.span_id
            assert rec.current is root
        assert rec.current is None

    def test_exception_annotates_and_closes(self):
        rec = FlightRecorder(clock=_Ticker())
        with pytest.raises(RuntimeError):
            with rec.span("insert"):
                raise RuntimeError("boom")
        assert rec.ops[-1].attrs["error"] == "RuntimeError"
        assert rec.current is None

    def test_set_annotations(self):
        rec = FlightRecorder(clock=_Ticker())
        with rec.span("query") as op:
            op.set(items=7, peers_contacted=2)
        assert op.attrs == {"items": 7, "peers_contacted": 2}


class TestRecording:
    def test_edges_bump_operation_counters(self):
        rec = FlightRecorder(clock=_Ticker())
        with rec.span("insert") as op:
            rec.record("insert", 1, 2, 100, t=0.5)
            rec.record("insert", 2, 3, 100, t=0.6)
            rec.record("replicate", 3, 4, 50, status="dropped", t=0.7)
        first = rec.edges[0]
        assert (first.trace_id, first.op_id, first.seq) == (
            op.span_id, op.span_id, 0
        )
        assert (op.hops, op.bytes, op.drops) == (3, 250, 1)
        assert [e.seq for e in rec.edges] == [0, 1, 2]
        assert [e.t for e in rec.edges] == [0.5, 0.6, 0.7]

    def test_retransmits_and_duplicates_are_tagged_edges(self):
        rec = FlightRecorder(clock=_Ticker())
        with rec.span("patch") as op:
            rec.record("publish_delta", 1, 2, 64, retransmits=2, copies=1)
        statuses = [e.status for e in rec.edges]
        assert statuses == ["sent", "retransmit", "retransmit", "duplicate"]
        assert [e.seq for e in rec.edges] == [0, 1, 2, 3]
        # Primary-hop counters exclude the tagged extras.
        assert (op.hops, op.retransmits, op.duplicates) == (1, 2, 1)
        assert op.bytes == 64

    def test_orphan_edges_without_operation(self):
        rec = FlightRecorder(clock=_Ticker())
        rec.record("data", 1, 2, 10)
        rec.record("data", 2, 3, 10, retransmits=1)
        rec.record("data", 3, 4, 10)
        primaries = [e for e in rec.edges if e.status == "sent"]
        assert [e.seq for e in primaries] == [0, 1, 3]
        assert all(e.op_id is None and e.trace_id is None for e in rec.edges)

    def test_mark_retry_is_one_shot(self):
        rec = FlightRecorder(clock=_Ticker())
        with rec.span("query"):
            rec.record("retrieve", 1, 2, 10)
            rec.mark_retry(2)
            rec.record("retrieve", 1, 2, 10)
            rec.record("retrieve", 1, 2, 10)
        assert [e.attempt for e in rec.edges] == [1, 2, 1]

    def test_ring_eviction_preserves_counters(self):
        rec = FlightRecorder(capacity=4, clock=_Ticker())
        with rec.span("insert") as op:
            for hop in range(10):
                rec.record("insert", hop, hop + 1, 8)
        assert len(rec.edges) == 4
        assert rec.evicted_edges == 6
        assert [e.seq for e in rec.edges] == [6, 7, 8, 9]
        # Summary counters survive the eviction of their edges.
        assert (op.hops, op.bytes) == (10, 80)
        assert rec.snapshot()["evicted_edges"] == 6

    def test_max_ops_eviction(self):
        rec = FlightRecorder(max_ops=3, clock=_Ticker())
        for index in range(5):
            with rec.span("lookup", n=index):
                pass
        assert [op.attrs["n"] for op in rec.ops] == [2, 3, 4]
        assert rec.evicted_ops == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            FlightRecorder(capacity=0)
        with pytest.raises(ValueError):
            FlightRecorder(sample=1.5)

    def test_negative_max_ops_is_refused(self):
        with pytest.raises(ValidationError, match="max_ops"):
            FlightRecorder(max_ops=-1)


class TestSampling:
    def test_sampled_out_root_records_nothing(self):
        rec = FlightRecorder(sample=0.0, clock=_Ticker())
        with rec.span("publish") as op:
            rec.record("insert", 1, 2, 10)
            with rec.span("insert") as child:
                rec.record("insert", 2, 3, 10)
        assert not rec.edges
        assert (op.hops, child.hops) == (0, 0)
        assert not op.sampled and not child.sampled

    def test_sampling_is_seed_deterministic(self):
        def decisions(seed):
            rec = FlightRecorder(sample=0.5, seed=seed, clock=_Ticker())
            out = []
            for __ in range(64):
                with rec.span("op") as op:
                    out.append(op.sampled)
            return out

        first = decisions(42)
        assert first == decisions(42)
        assert any(first) and not all(first)
        assert first != decisions(43)

    def test_children_follow_root_decision(self):
        rec = FlightRecorder(sample=0.5, seed=1, clock=_Ticker())
        for __ in range(32):
            with rec.span("publish") as root:
                with rec.span("insert") as child:
                    assert child.sampled == root.sampled


class TestReconstruction:
    def test_routing_tree_chain_and_branch(self):
        rec = FlightRecorder(clock=_Ticker())
        with rec.span("range_query") as op:
            rec.record("range_query", 1, 2, 10)
            rec.record("range_query", 2, 3, 10)
            rec.record("range_query", 2, 4, 10, status="dropped")
        tree = rec.routing_tree(op.span_id)
        assert tree["roots"] == [1]
        assert tree["children"][1] == [(2, "sent")]
        assert tree["children"][2] == [(3, "sent"), (4, "dropped")]
        assert tree["primary_edges"] == 3 == op.hops
        assert tree["dropped"] == 1

    def test_subtree_merges_child_operations(self):
        rec = FlightRecorder(clock=_Ticker())
        with rec.span("publish") as root:
            rec.record("publish", 9, 1, 10)
            with rec.span("insert"):
                rec.record("insert", 1, 2, 10, retransmits=1)
        tree = rec.routing_tree(root.span_id, subtree=True)
        assert tree["primary_edges"] == 2
        assert tree["retransmits"] == 1
        flat = rec.routing_tree(root.span_id, subtree=False)
        assert flat["primary_edges"] == 1

    def test_per_op_histograms(self):
        rec = FlightRecorder(clock=_Ticker())
        for hops in (2, 2, 4):
            with rec.span("insert"):
                for hop in range(hops):
                    rec.record("insert", hop, hop + 1, 10)
        hist = rec.per_op_histograms()["insert"]
        assert hist["ops"] == 3
        assert hist["hops"]["mean"] == pytest.approx(8 / 3)
        assert hist["hop_counts"] == {"2": 2, "4": 1}


class TestExport:
    def test_jsonl_roundtrip(self, tmp_path):
        rec = FlightRecorder(clock=_Ticker())
        with rec.span("query", origin=5):
            rec.record("retrieve", 1, 2, 10, t=1.0)
            rec.record("data", 2, 1, 99, status="dropped", copies=1, t=2.0)
        path = tmp_path / "flight.jsonl"
        assert rec.write_jsonl(path) == len(rec.edges) + len(rec.ops)
        records = read_jsonl(path)
        ops = [r for r in records if r.get("record") == "op"]
        edges = [r for r in records if r.get("record") != "op"]
        assert edges == [e.to_record() for e in rec.edges]
        assert ops == rec.op_summaries()

    def test_dumps_jsonl_is_deterministic(self):
        def run():
            rec = FlightRecorder(clock=_Ticker())
            with rec.span("insert", origin=1):
                rec.record("insert", 1, 2, 10, t=0.25)
            return rec.dumps_jsonl()

        assert run() == run()

    def test_empty_recorder_writes_empty_file(self, tmp_path):
        path = tmp_path / "flight.jsonl"
        assert FlightRecorder(clock=_Ticker()).write_jsonl(path) == 0
        assert path.read_text() == ""


class TestGlobalState:
    def test_default_is_null_recorder(self):
        assert runtime.current.flight is NULL_RECORDER
        assert not runtime.current.flight.enabled

    def test_null_recorder_is_inert(self):
        null = NullRecorder()
        with null.span("insert") as op:
            op.set(ignored=True)
            null.record("insert", 1, 2, 10)
        null.mark_retry(3)
        assert op is NULL_SPAN

    def test_context_manager_installs_and_restores(self):
        rec = FlightRecorder(clock=_Ticker())
        with runtime.run_context(flight=rec):
            assert runtime.current.flight is rec
        assert runtime.current.flight is NULL_RECORDER

    def test_set_flight_recorder_roundtrip(self):
        outer = FlightRecorder(clock=_Ticker())
        rec = FlightRecorder(clock=_Ticker())
        with runtime.run_context(flight=outer):
            with runtime.run_context(flight=rec):
                assert runtime.current.flight is rec
            assert runtime.current.flight is outer


# ---------------------------------------------------------------------------
# The acceptance invariant: flight edges ⇔ NetworkMetrics, end to end.
# ---------------------------------------------------------------------------

#: Flight-operation kinds that map 1:1 onto a metrics finish_operation kind.
KIND_MAP = {
    "join": MessageKind.JOIN,
    "insert": MessageKind.INSERT,
    "lookup": MessageKind.LOOKUP,
    "range_query": MessageKind.RANGE_QUERY,
}


def _build(seed=0, n_peers=5, dim=16, plan=None):
    config = HyperMConfig(levels_used=3, n_clusters=3)
    net = HyperMNetwork(dim, config, rng=seed)
    if plan is not None:
        net.fabric.install_faults(plan)
    data_rng = np.random.default_rng(seed + 1)
    for __ in range(n_peers):
        net.add_peer(data_rng.random((12, dim)))
    net.publish_all()
    return net


def _run_queries(net, n=4, seed=0):
    rng = np.random.default_rng(seed)
    for __ in range(n):
        net.range_query(rng.random(net.dimensionality), 0.6, max_peers=3)


def _assert_flight_matches_metrics(rec, net):
    metrics = net.fabric.metrics
    # 1. Every finished operation reconstructs into a routing tree whose
    #    primary edge count equals its hop counter, drops/retries/dups
    #    appearing as tagged edges.
    for op in rec.ops:
        tree = rec.routing_tree(op.span_id, subtree=False)
        assert tree["primary_edges"] == op.hops
        assert tree["dropped"] == op.drops
        assert tree["retransmits"] == op.retransmits
        assert tree["duplicates"] == op.duplicates
    # 2. Per-kind: the flight ops of each overlay kind reproduce exactly
    #    the per-op hop statistics the fabric metrics reported.
    for flight_kind, message_kind in KIND_MAP.items():
        ops = [op for op in rec.ops if op.name == flight_kind]
        bucket = metrics.kind(message_kind)
        assert len(ops) == bucket.per_op_hops.count
        assert sum(op.hops for op in ops) == pytest.approx(
            bucket.per_op_hops.mean * bucket.per_op_hops.count
        )
        if ops:
            assert max(op.hops for op in ops) == bucket.per_op_hops.max
            assert min(op.hops for op in ops) == bucket.per_op_hops.min
    # 3. Patch + retract flight ops together are the PUBLISH_DELTA bucket.
    delta_ops = [op for op in rec.ops if op.name in ("patch", "retract")]
    delta = metrics.kind(MessageKind.PUBLISH_DELTA)
    assert len(delta_ops) == delta.per_op_hops.count
    assert sum(op.hops for op in delta_ops) == pytest.approx(
        delta.per_op_hops.mean * delta.per_op_hops.count
    )
    # 4. Global conservation: every transmit produced exactly one primary
    #    edge, every fault-injected extra exactly one tagged edge.
    by_status = {"sent": 0, "dropped": 0, "retransmit": 0, "duplicate": 0}
    for edge in rec.edges:
        by_status[edge.status] += 1
    assert by_status["sent"] + by_status["dropped"] == metrics.total_messages
    assert by_status["retransmit"] == metrics.total_retransmits
    assert by_status["duplicate"] == metrics.total_duplicates


class TestMetricsInvariant:
    def test_clean_fabric_publish_and_query(self):
        rec = FlightRecorder()
        with runtime.run_context(flight=rec):
            net = _build(seed=2)
            _run_queries(net, seed=2)
        assert not rec.evicted_edges, "ring too small for the workload"
        _assert_flight_matches_metrics(rec, net)
        # A clean fabric has no tagged edges at all.
        assert all(e.status == "sent" for e in rec.edges)

    def test_delta_republish_maps_onto_publish_delta_bucket(self):
        rec = FlightRecorder()
        with runtime.run_context(flight=rec):
            net = _build(seed=4)
            peer = net.peers[1]
            rng = np.random.default_rng(99)
            peer.add_items(
                rng.random((3, net.dimensionality)),
                np.arange(1_000_000, 1_000_003),
            )
            net.republish_peer(1)
            _run_queries(net, n=2, seed=4)
        _assert_flight_matches_metrics(rec, net)
        assert any(op.name == "patch" for op in rec.ops)

    @settings(max_examples=6, deadline=None)
    @given(
        loss=st.sampled_from([0.05, 0.2, 0.4]),
        duplication=st.sampled_from([0.0, 0.1]),
        fault_seed=st.integers(0, 100),
    )
    def test_lossy_fabric_property(self, loss, duplication, fault_seed):
        """Drops, retries and duplicates appear as tagged edges, never
        as holes: the invariant holds under any lossy plan."""
        plan = FaultPlan(
            loss=loss, duplication=duplication, seed=fault_seed
        )
        rec = FlightRecorder()
        with runtime.run_context(flight=rec):
            net = _build(seed=3, plan=plan)
            _run_queries(net, seed=fault_seed)
        assert not rec.evicted_edges, "ring too small for the workload"
        _assert_flight_matches_metrics(rec, net)

    def test_lossy_fabric_tags_retries_with_attempts(self):
        plan = FaultPlan(loss=0.4, seed=7)
        rec = FlightRecorder()
        with runtime.run_context(flight=rec):
            net = _build(seed=3, plan=plan)
            _run_queries(net, n=8, seed=7)
        assert net.fabric.metrics.total_retransmits > 0
        # reliable_send retries stamp attempt > 1 on the retry frames.
        assert any(e.attempt > 1 for e in rec.edges)
        _assert_flight_matches_metrics(rec, net)

    def test_query_hits_marked_on_load_ledger(self):
        with runtime.run_context(flight=FlightRecorder()):
            net = _build(seed=5)
            _run_queries(net, seed=5)
        snapshot = net.fabric.load.snapshot()
        assert snapshot["query_hits"] > 0
