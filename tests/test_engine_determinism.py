"""Pin the event-ordering and replay semantics of the simulator's clock.

Two families of guarantees are pinned here, against the public
``repro.net`` import path:

* **Same-tick tie-breaking** — events scheduled for the same simulated
  time fire in scheduling order (the ``(time, seq)`` heap key), even
  when interleaved with earlier/later times or scheduled mid-run.
* **Replay identity** — the same build seed plus the same seeded
  :class:`FaultPlan` reproduces identical fabric metrics, identical
  flight-recorder edge streams, and identical query scores across two
  independent end-to-end runs.
"""

from __future__ import annotations

import numpy as np

from repro.core.network import HyperMConfig, HyperMNetwork
from repro.faults import FaultPlan
from repro.net import Event, SerialScheduler
from repro.obs.flight import FlightRecorder
from repro.runtime import run_context


class TestSameTickTieBreaking:
    def test_same_time_fires_in_scheduling_order(self):
        sched = SerialScheduler()
        fired = []
        for tag in range(8):
            sched.schedule_at(2.0, lambda t=tag: fired.append(t))
        sched.run()
        assert fired == list(range(8))

    def test_interleaved_times_keep_per_tick_fifo(self):
        sched = SerialScheduler()
        fired = []
        # Schedule out of chronological order; ties must still respect
        # the order the schedule_* calls were made in.
        sched.schedule_at(3.0, lambda: fired.append("c1"))
        sched.schedule_at(1.0, lambda: fired.append("a1"))
        sched.schedule_at(3.0, lambda: fired.append("c2"))
        sched.schedule_at(1.0, lambda: fired.append("a2"))
        sched.schedule_after(1.0, lambda: fired.append("a3"))
        sched.run()
        assert fired == ["a1", "a2", "a3", "c1", "c2"]

    def test_mid_run_scheduling_joins_the_tail_of_its_tick(self):
        sched = SerialScheduler()
        fired = []

        def first():
            fired.append("first")
            # Scheduled *during* the tick at the same timestamp: runs
            # after everything already queued for that timestamp.
            sched.schedule_at(1.0, lambda: fired.append("late"))

        sched.schedule_at(1.0, first)
        sched.schedule_at(1.0, lambda: fired.append("second"))
        sched.run()
        assert fired == ["first", "second", "late"]

    def test_cancelled_events_do_not_consume_order(self):
        sched = SerialScheduler()
        fired = []
        keep = []
        for tag in range(6):
            event = sched.schedule_at(1.0, lambda t=tag: fired.append(t))
            keep.append(event)
        keep[1].cancel()
        keep[4].cancel()
        sched.run()
        assert fired == [0, 2, 3, 5]

    def test_seq_is_monotonic_across_ticks(self):
        sched = SerialScheduler()
        events = [sched.schedule_at(float(t % 3), lambda: None)
                  for t in range(9)]
        seqs = [event.seq for event in events]
        assert seqs == sorted(seqs)
        assert len(set(seqs)) == len(seqs)

    def test_event_ordering_key_is_time_then_seq(self):
        early = Event(time=1.0, seq=5, action=lambda: None)
        late = Event(time=1.0, seq=6, action=lambda: None)
        other = Event(time=2.0, seq=0, action=lambda: None)
        assert early < late < other


def _build_network(seed=0, n_peers=5, dim=16):
    config = HyperMConfig(levels_used=3, n_clusters=3)
    network = HyperMNetwork(dim, config, rng=seed)
    data_rng = np.random.default_rng(seed + 1)
    for __ in range(n_peers):
        network.add_peer(data_rng.random((20, dim)))
    network.publish_all()
    return network


def _faulted_run(seed=0, loss=0.15, fault_seed=7, n_queries=5):
    """One end-to-end faulted run; returns every replayable signal."""
    flight = FlightRecorder(capacity=50_000)
    with run_context(
        fault_plan=FaultPlan(loss=loss, seed=fault_seed), flight=flight
    ):
        network = _build_network(seed=seed)
        rng = np.random.default_rng(seed + 99)
        results = []
        for __ in range(n_queries):
            result = network.range_query(
                rng.random(network.dimensionality), 0.6, max_peers=3
            )
            results.append(
                (
                    sorted(result.item_ids),
                    sorted(
                        (pid, round(score, 12))
                        for pid, score in result.peer_scores.items()
                    ),
                    result.index_hops,
                )
            )
    edges = [
        (e.kind, e.source, e.dest, e.size_bytes, e.status, e.attempt, e.t)
        for e in flight.edges
    ]
    return {
        "results": results,
        "metrics": network.fabric.metrics.snapshot(),
        "events": network.fabric.scheduler.events_processed,
        "edges": edges,
    }


class TestReplayIdentity:
    def test_seeded_fault_plan_replays_bit_identically(self):
        first = _faulted_run()
        second = _faulted_run()
        assert first["results"] == second["results"]
        assert first["metrics"] == second["metrics"]
        assert first["events"] == second["events"]
        assert first["edges"] == second["edges"]

    def test_different_fault_seed_changes_the_run(self):
        # Sanity check that the replay test has teeth: a different fault
        # seed must perturb at least the edge stream.
        first = _faulted_run(fault_seed=7)
        other = _faulted_run(fault_seed=8)
        assert first["edges"] != other["edges"]
