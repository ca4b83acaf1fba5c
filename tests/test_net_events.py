"""Tests for the discrete-event scheduler."""

import pytest

from repro.exceptions import ValidationError
from repro.net import SerialScheduler


class TestScheduler:
    def test_chronological_order(self):
        sched = SerialScheduler()
        fired = []
        sched.schedule_after(3.0, lambda: fired.append("c"))
        sched.schedule_after(1.0, lambda: fired.append("a"))
        sched.schedule_after(2.0, lambda: fired.append("b"))
        sched.run()
        assert fired == ["a", "b", "c"]

    def test_fifo_tie_break(self):
        sched = SerialScheduler()
        fired = []
        for tag in "abc":
            sched.schedule_at(1.0, lambda t=tag: fired.append(t))
        sched.run()
        assert fired == ["a", "b", "c"]

    def test_clock_advances(self):
        sched = SerialScheduler()
        times = []
        sched.schedule_after(2.5, lambda: times.append(sched.now))
        sched.run()
        assert times == [2.5]
        assert sched.now == 2.5

    def test_cancellation(self):
        sched = SerialScheduler()
        fired = []
        event = sched.schedule_after(1.0, lambda: fired.append("x"))
        event.cancel()
        sched.run()
        assert fired == []

    def test_events_scheduled_during_run(self):
        sched = SerialScheduler()
        fired = []

        def first():
            fired.append("first")
            sched.schedule_after(1.0, lambda: fired.append("second"))

        sched.schedule_after(1.0, first)
        sched.run()
        assert fired == ["first", "second"]
        assert sched.now == 2.0

    def test_run_until(self):
        sched = SerialScheduler()
        fired = []
        sched.schedule_at(1.0, lambda: fired.append(1))
        sched.schedule_at(5.0, lambda: fired.append(5))
        count = sched.run_until(3.0)
        assert count == 1
        assert fired == [1]
        assert sched.now == 3.0
        sched.run()
        assert fired == [1, 5]

    def test_max_events_guard(self):
        sched = SerialScheduler()

        def rearm():
            sched.schedule_after(1.0, rearm)

        sched.schedule_after(1.0, rearm)
        count = sched.run(max_events=25)
        assert count == 25

    def test_past_scheduling_rejected(self):
        sched = SerialScheduler()
        sched.schedule_at(5.0, lambda: None)
        sched.run()
        with pytest.raises(ValidationError):
            sched.schedule_at(1.0, lambda: None)

    def test_negative_delay_rejected(self):
        with pytest.raises(ValidationError):
            SerialScheduler().schedule_after(-1.0, lambda: None)

    def test_len_counts_pending(self):
        sched = SerialScheduler()
        e1 = sched.schedule_after(1.0, lambda: None)
        sched.schedule_after(2.0, lambda: None)
        assert len(sched) == 2
        e1.cancel()
        assert len(sched) == 1
