"""End-to-end determinism and bit-identity guarantees of repro.faults.

Two pinned contracts:

* **Replay** — the same build seed plus the same :class:`FaultPlan`
  reproduces identical flight-recorder edges (each frame's fate is a
  tagged edge), identical query results, and identical injector counters
  (the fault stream is a private seeded RNG drawn in strict call order).
* **Zero-fault identity** — installing ``FaultPlan()`` (the null plan)
  yields results byte-identical to running with no plan at all: same
  items, same accounting, same fabric metrics, same obs metrics.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.network import HyperMConfig, HyperMNetwork
from repro.core.scoring import partial_confidence
from repro.exceptions import ValidationError
from repro.faults import FaultPlan, crash_peer
from repro.obs.flight import FlightRecorder
from repro.obs.registry import MetricsRegistry
from repro.runtime import run_context


def _build(seed=0, n_peers=5, dim=16):
    config = HyperMConfig(levels_used=3, n_clusters=3)
    net = HyperMNetwork(dim, config, rng=seed)
    data_rng = np.random.default_rng(seed + 1)
    for __ in range(n_peers):
        net.add_peer(data_rng.random((20, dim)))
    net.publish_all()
    return net


def _run_queries(network, n=4, seed=0, max_peers=3):
    rng = np.random.default_rng(seed)
    out = []
    for __ in range(n):
        result = network.range_query(
            rng.random(network.dimensionality), 0.6, max_peers=max_peers
        )
        out.append(
            (
                sorted(result.item_ids),
                result.peers_contacted,
                sorted(result.failed_contacts),
                result.index_hops,
                result.retrieval_messages,
                round(result.confidence, 12),
                result.degraded,
            )
        )
    return out


def _recorded_queries(network, seed=0):
    """Run the queries under a flight recorder; returns results + edges."""
    flight = FlightRecorder(clock=lambda: 0.0)
    with run_context(flight=flight):
        results = _run_queries(network, seed=seed)
    return results, [edge.to_record() for edge in flight.edges]


class TestReplayDeterminism:
    @settings(max_examples=8, deadline=None)
    @given(
        fault_seed=st.integers(0, 1000),
        loss=st.sampled_from([0.05, 0.2, 0.5]),
    )
    def test_same_plan_identical_queries_and_trace(self, fault_seed, loss):
        runs = []
        for __ in range(2):
            network = _build(seed=3)
            injector = network.fabric.install_faults(
                FaultPlan(loss=loss, seed=fault_seed)
            )
            results, edges = _recorded_queries(network, seed=fault_seed)
            runs.append((results, edges, injector.snapshot()))
        assert runs[0] == runs[1]

    def test_crashes_replay_identically(self):
        runs = []
        for __ in range(2):
            network = _build(seed=5)
            injector = network.fabric.install_faults(
                FaultPlan(loss=0.1, seed=9)
            )
            crash_peer(network, 1)
            crash_peer(network, 3)
            results = _run_queries(network, seed=7, max_peers=4)
            runs.append((results, injector.snapshot()))
        assert runs[0] == runs[1]

    def test_different_fault_seeds_diverge(self):
        traces = []
        for fault_seed in (1, 2):
            network = _build(seed=3)
            injector = network.fabric.install_faults(
                FaultPlan(loss=0.4, seed=fault_seed)
            )
            __, edges = _recorded_queries(network, seed=0)
            traces.append((edges, injector.snapshot()))
        assert traces[0] != traces[1]


class TestZeroFaultIdentity:
    def _run(self, install_null):
        registry = MetricsRegistry()
        with run_context(metrics=registry):
            network = _build(seed=11)
            if install_null:
                network.fabric.install_faults(FaultPlan())
            results = _run_queries(network, seed=2)
            knn = network.knn_query(
                np.random.default_rng(4).random(network.dimensionality), 5
            )
            fabric = network.fabric.snapshot()
            fabric.pop("faults", None)
            return (
                results,
                sorted(knn.item_ids),
                knn.retrieval_messages,
                fabric,
                registry.snapshot(),
            )

    def test_null_plan_bit_identical(self):
        baseline = self._run(install_null=False)
        nulled = self._run(install_null=True)
        assert baseline == nulled

    def test_null_plan_draws_no_randomness(self):
        network = _build(seed=11)
        injector = network.fabric.install_faults(FaultPlan())
        state_before = injector._rng.bit_generator.state
        __, edges = _recorded_queries(network, seed=2)
        assert injector._rng.bit_generator.state == state_before
        assert injector.counters == {}
        assert edges and {edge["status"] for edge in edges} == {"sent"}


class TestDegradationContract:
    def test_confidence_formula(self):
        assert partial_confidence(3, 3, 4, 4) == 1.0
        assert partial_confidence(2, 4, 3, 3) == pytest.approx(0.5)
        assert partial_confidence(3, 3, 1, 4) == pytest.approx(0.25)
        assert partial_confidence(0, 0, 0, 0) == 1.0  # nothing attempted

    def test_answered_cannot_exceed_attempted(self):
        with pytest.raises(ValidationError):
            partial_confidence(4, 3, 1, 1)
        with pytest.raises(ValidationError):
            partial_confidence(1, 1, 5, 3)

    def test_query_degrades_instead_of_raising(self):
        network = _build(seed=5)
        network.fabric.install_faults(FaultPlan(loss=0.1, seed=9))
        crash_peer(network, 1)
        crash_peer(network, 3)
        rng = np.random.default_rng(0)
        for __ in range(5):
            result = network.range_query(
                rng.random(network.dimensionality), 0.7, max_peers=4
            )
            assert 0.0 <= result.confidence <= 1.0
            if result.failed_contacts:
                assert result.degraded
                assert result.confidence < 1.0

    def test_clean_queries_report_full_confidence(self):
        network = _build(seed=5)
        result = network.range_query(
            np.random.default_rng(1).random(network.dimensionality), 0.6
        )
        assert result.confidence == 1.0
        assert not result.degraded
