"""Fault plan, injector, and resilience-primitive tests."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.network import HyperMConfig, HyperMNetwork
from repro.exceptions import ValidationError
from repro.faults import (
    FaultInjector,
    FaultPlan,
    PartitionWindow,
    RetryPolicy,
    crash_peer,
    parse_fault_plan,
    reliable_send,
    tombstone_peer,
)
from repro.faults.injector import REACTIVE_KINDS
from repro.net.messages import MessageKind
from repro.net.network import Network
from repro.runtime import run_context


class TestFaultPlan:
    def test_defaults_are_null(self):
        plan = FaultPlan()
        assert plan.is_null
        assert plan.loss == 0.0 and plan.crash_fraction == 0.0

    def test_any_fault_knob_clears_null(self):
        assert not FaultPlan(loss=0.1).is_null
        assert not FaultPlan(duplication=0.05).is_null
        assert not FaultPlan(
            partitions=(PartitionWindow(0.0, 1.0, frozenset({1})),)
        ).is_null

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"loss": -0.1},
            {"loss": 1.5},
            {"duplication": -0.2},
            {"crash_fraction": 2.0},
            {"seed": -1},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValidationError):
            FaultPlan(**kwargs)

    def test_retry_policy_backoff_caps(self):
        policy = RetryPolicy(
            max_attempts=6, base_timeout=0.1, backoff=2.0, max_timeout=0.3
        )
        waits = [policy.wait_before_attempt(a) for a in range(1, 7)]
        assert waits[0] == 0.0  # first attempt is immediate
        assert waits[1] == pytest.approx(0.1)
        assert waits[2] == pytest.approx(0.2)
        assert waits[3] == pytest.approx(0.3)  # capped
        assert waits[4] == pytest.approx(0.3)
        assert waits[5] == pytest.approx(0.3)

    def test_partition_window_severs_across_boundary(self):
        window = PartitionWindow(1.0, 2.0, frozenset({1, 2}))
        assert window.severs(1, 9, 1.5)  # one endpoint inside
        assert not window.severs(1, 2, 1.5)  # both inside: same side
        assert not window.severs(8, 9, 1.5)  # both outside
        assert not window.severs(1, 9, 2.5)  # window over

    def test_parse_round_trip(self):
        plan = parse_fault_plan(
            "loss=0.1,dup=0.01,crash=0.25,seed=3,retries=5"
        )
        assert plan.loss == pytest.approx(0.1)
        assert plan.duplication == pytest.approx(0.01)
        assert plan.crash_fraction == pytest.approx(0.25)
        assert plan.seed == 3
        assert plan.retry.max_attempts == 5

    def test_parse_rejects_unknown_keys(self):
        with pytest.raises(ValidationError):
            parse_fault_plan("loss=0.1,warp=9")

    def test_parse_rejects_malformed(self):
        with pytest.raises(ValidationError):
            parse_fault_plan("loss")

    def test_delay_is_an_unknown_key(self):
        with pytest.raises(ValidationError, match="unknown fault-plan key"):
            parse_fault_plan("delay=0.005")

    @pytest.mark.parametrize("spec", ["seed=2.9", "retries=2.5"])
    def test_parse_rejects_fractional_counts(self, spec):
        with pytest.raises(ValidationError, match="whole number"):
            parse_fault_plan(spec)

    def test_negative_seed_is_refused(self):
        with pytest.raises(ValidationError, match="seed must be >= 0"):
            parse_fault_plan("seed=-1")

    def test_cli_refuses_negative_seed_before_running(self):
        from repro.cli import main

        with pytest.raises(ValidationError, match="seed must be >= 0"):
            main(["fig9", "--peers", "6", "--fault-plan", "seed=-1"])


class TestInjectorDeterminism:
    def _trace(self, plan, n=200):
        injector = FaultInjector(plan)
        out = []
        for i in range(n):
            kind = (
                MessageKind.RETRIEVE if i % 2 else MessageKind.INSERT
            )
            verdict = injector.on_transmit(kind, i % 7, (i + 1) % 7, 0.0)
            out.append(
                (verdict.delivered, verdict.copies, verdict.retransmits)
            )
        return out

    @given(
        seed=st.integers(0, 2**31),
        loss=st.floats(0.0, 0.9),
        dup=st.floats(0.0, 0.5),
    )
    def test_same_plan_same_stream(self, seed, loss, dup):
        plan = FaultPlan(loss=loss, duplication=dup, seed=seed)
        assert self._trace(plan) == self._trace(plan)

    def test_different_seeds_differ(self):
        a = self._trace(FaultPlan(loss=0.5, seed=1))
        b = self._trace(FaultPlan(loss=0.5, seed=2))
        assert a != b

    def test_null_plan_is_passthrough(self):
        injector = FaultInjector(FaultPlan())
        assert injector.passthrough
        verdict = injector.on_transmit(MessageKind.RETRIEVE, 0, 1, 0.0)
        assert verdict.delivered and verdict.copies == 1
        assert verdict.retransmits == 0

    def test_overlay_plane_always_delivers(self):
        injector = FaultInjector(FaultPlan(loss=0.9, seed=0))
        for __ in range(100):
            verdict = injector.on_transmit(MessageKind.INSERT, 0, 1, 0.0)
            assert verdict.delivered  # charged retransmits, never dropped
        assert injector.counters.get("link_retransmits", 0) > 0

    def test_reactive_plane_drops(self):
        injector = FaultInjector(FaultPlan(loss=0.9, seed=0))
        outcomes = [
            injector.on_transmit(MessageKind.RETRIEVE, 0, 1, 0.0).delivered
            for __ in range(100)
        ]
        assert not all(outcomes)

    def test_reactive_kinds_cover_query_plane(self):
        assert MessageKind.RETRIEVE in REACTIVE_KINDS
        assert MessageKind.DATA in REACTIVE_KINDS
        assert MessageKind.INSERT not in REACTIVE_KINDS

    def test_crash_drops_all_traffic_to_node(self):
        injector = FaultInjector(FaultPlan(loss=0.0, seed=0))
        injector.crash(3, [42])
        assert not injector.passthrough
        verdict = injector.on_transmit(MessageKind.INSERT, 0, 42, 0.0)
        assert not verdict.delivered

    def test_failure_detector_threshold(self):
        injector = FaultInjector(FaultPlan(loss=0.5, seed=0))
        assert not injector.note_contact_failure(7)
        assert not injector.note_contact_failure(7)
        assert injector.note_contact_failure(7)  # third strike
        assert injector.drain_suspects() == [7]
        assert injector.drain_suspects() == []  # drained once

    def test_success_resets_failure_streak(self):
        injector = FaultInjector(FaultPlan(loss=0.5, seed=0))
        injector.note_contact_failure(7)
        injector.note_contact_failure(7)
        injector.note_contact_success(7)
        assert not injector.note_contact_failure(7)


class TestPartitionHealing:
    def test_partition_drops_then_heals(self):
        window = PartitionWindow(0.0, 1.0, frozenset({1}))
        injector = FaultInjector(FaultPlan(partitions=(window,)))
        during = injector.on_transmit(MessageKind.RETRIEVE, 1, 2, 0.5)
        after = injector.on_transmit(MessageKind.RETRIEVE, 1, 2, 1.5)
        assert not during.delivered
        assert after.delivered


class TestReliableSend:
    def _fabric(self, plan=None):
        fabric = Network(fault_plan=plan)
        fabric.register(0)
        fabric.register(1)
        return fabric

    def test_clean_fabric_single_attempt(self):
        fabric = self._fabric()
        outcome = reliable_send(
            fabric, 0, 1, MessageKind.RETRIEVE, 100
        )
        assert outcome.delivered
        assert outcome.attempts == 1 and outcome.timeouts == 0
        snapshot = fabric.metrics.snapshot()
        assert snapshot[MessageKind.RETRIEVE.value]["messages"] == 1

    def test_retries_advance_virtual_clock(self):
        fabric = self._fabric(FaultPlan(loss=0.95, seed=1))
        start = fabric.scheduler.now
        outcome = reliable_send(
            fabric, 0, 1, MessageKind.RETRIEVE, 100
        )
        assert outcome.attempts >= 2
        assert fabric.scheduler.now > start  # backoff waited

    def test_attempts_bounded_by_budget(self):
        # A partition wider than the whole retry budget: every attempt
        # fails deterministically, so the budget is the only bound.
        plan = FaultPlan(
            partitions=(PartitionWindow(0.0, 1e9, frozenset({0})),),
            retry=RetryPolicy(max_attempts=3),
        )
        fabric = self._fabric(plan)
        outcome = reliable_send(
            fabric, 0, 1, MessageKind.RETRIEVE, 100
        )
        assert not outcome.delivered
        assert outcome.attempts == 3 and outcome.timeouts == 3

    def test_retry_outlives_partition(self):
        # The window closes at t=0.06; the default policy's second
        # attempt waits 0.05 and the third another 0.1, carrying the
        # send past the heal point.
        plan = FaultPlan(
            partitions=(PartitionWindow(0.0, 0.06, frozenset({0})),),
        )
        fabric = self._fabric(plan)
        outcome = reliable_send(
            fabric, 0, 1, MessageKind.RETRIEVE, 100
        )
        assert outcome.delivered
        assert outcome.attempts >= 2


class TestCrashAndTombstone:
    @pytest.fixture
    def network(self, rng):
        config = HyperMConfig(levels_used=3, n_clusters=3)
        net = HyperMNetwork(16, config, rng=0)
        for __ in range(6):
            net.add_peer(rng.random((25, 16)))
        net.publish_all()
        return net

    def test_crash_requires_injector(self, network):
        with pytest.raises(ValidationError):
            crash_peer(network, 2)

    def test_crash_leaves_overlay_uncleaned(self, network):
        network.fabric.install_faults(FaultPlan(loss=0.0))
        nodes_before = {
            level: len(overlay.node_ids)
            for level, overlay in network.overlays.items()
        }
        crash_peer(network, 2)
        assert not network.peers[2].online
        # Abrupt: no overlay leave happened, zones still held.
        for level, overlay in network.overlays.items():
            assert len(overlay.node_ids) == nodes_before[level]

    def test_depart_is_clean_crash_is_not(self, network):
        network.fabric.install_faults(FaultPlan(loss=0.0))
        n0 = len(network.overlays[network.levels[0]].node_ids)
        network.depart(1)
        assert len(
            network.overlays[network.levels[0]].node_ids
        ) == n0 - 1
        crash_peer(network, 2)
        assert len(
            network.overlays[network.levels[0]].node_ids
        ) == n0 - 1  # unchanged by the crash

    def test_tombstone_feeds_level_store(self, network):
        network.fabric.install_faults(FaultPlan(loss=0.0))
        crash_peer(network, 3)
        removed = tombstone_peer(network, 3)
        assert removed > 0
        for level, overlay in network.overlays.items():
            rows = overlay.level_store.rows_for_peer(3)
            assert len(rows) == 0

    def test_tombstoned_spheres_never_scored(self, network, rng):
        network.fabric.install_faults(FaultPlan(loss=0.0))
        crash_peer(network, 3)
        tombstone_peer(network, 3)
        result = network.range_query(rng.random(16), 0.8, origin_peer=0)
        assert 3 not in result.peer_scores


class TestPlanScope:
    def test_network_picks_up_ambient_plan(self):
        with run_context(fault_plan=FaultPlan(loss=0.25, seed=9)):
            fabric = Network()
        assert fabric.faults is not None
        assert fabric.faults.plan.loss == pytest.approx(0.25)

    def test_no_ambient_plan_outside_scope(self):
        fabric = Network()
        assert fabric.faults is None

    def test_scope_restores_previous(self):
        with run_context(fault_plan=FaultPlan(loss=0.1)):
            with run_context(fault_plan=FaultPlan(loss=0.2)):
                assert Network().faults.plan.loss == pytest.approx(0.2)
            assert Network().faults.plan.loss == pytest.approx(0.1)
        assert Network().faults is None


def test_explicit_plan_beats_ambient():
    with run_context(fault_plan=FaultPlan(loss=0.1)):
        fabric = Network(fault_plan=FaultPlan(loss=0.4))
    assert fabric.faults.plan.loss == pytest.approx(0.4)


def test_install_none_uninstalls():
    fabric = Network(fault_plan=FaultPlan(loss=0.3))
    assert fabric.faults is not None
    fabric.install_faults(None)
    assert fabric.faults is None
    assert "faults" not in fabric.snapshot()
