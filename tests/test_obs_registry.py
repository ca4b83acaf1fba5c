"""Tests for the observability metrics registry."""

import pytest

from repro.exceptions import ValidationError
from repro.net import SerialScheduler
from repro.obs.registry import MetricsRegistry, metrics
from repro.runtime import run_context


class TestCounter:
    def test_starts_at_zero_and_accumulates(self):
        reg = MetricsRegistry()
        counter = reg.counter("publish.items")
        assert counter.value == 0
        counter.inc()
        counter.inc(4)
        assert counter.value == 5

    def test_rejects_negative_increment(self):
        counter = MetricsRegistry().counter("x")
        with pytest.raises((ValueError, ValidationError)):
            counter.inc(-1)

    def test_same_name_same_instrument(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")
        assert reg.counter("a") is not reg.counter("b")


class TestGauge:
    def test_set_inc_dec(self):
        gauge = MetricsRegistry().gauge("depth")
        gauge.set(10)
        gauge.inc(2)
        gauge.dec(5)
        assert gauge.value == 7


class TestHistogram:
    def test_observes_summary_stats(self):
        hist = MetricsRegistry().histogram("hops")
        for v in (1.0, 2.0, 3.0):
            hist.observe(v)
        assert hist.stats.count == 3
        assert hist.total == pytest.approx(6.0)

    def test_snapshot_has_mean_min_max(self):
        reg = MetricsRegistry()
        hist = reg.histogram("hops")
        for v in (2.0, 4.0):
            hist.observe(v)
        stats = reg.snapshot()["histograms"]["hops"]
        assert stats["count"] == 2
        assert stats["mean"] == pytest.approx(3.0)
        assert stats["min"] == pytest.approx(2.0)
        assert stats["max"] == pytest.approx(4.0)


class TestLabelsAndSnapshot:
    def test_labels_distinguish_instruments(self):
        reg = MetricsRegistry()
        reg.counter("hops", level="A").inc(1)
        reg.counter("hops", level="D0").inc(2)
        counters = reg.snapshot()["counters"]
        assert counters["hops{level=A}"] == 1
        assert counters["hops{level=D0}"] == 2

    def test_label_order_is_canonical(self):
        reg = MetricsRegistry()
        assert reg.counter("x", b=2, a=1) is reg.counter("x", a=1, b=2)

    def test_snapshot_keys_sorted(self):
        reg = MetricsRegistry()
        for name in ("zeta", "alpha", "mid"):
            reg.counter(name).inc()
        assert list(reg.snapshot()["counters"]) == ["alpha", "mid", "zeta"]

    def test_reset_clears_everything(self):
        reg = MetricsRegistry()
        reg.counter("c").inc()
        reg.histogram("h").observe(1.0)
        reg.reset()
        snap = reg.snapshot()
        assert snap["counters"] == {}
        assert snap["histograms"] == {}


class TestTimer:
    def test_timer_uses_injected_simulated_clock(self):
        """A registry clocked by the discrete-event Scheduler measures
        virtual seconds, not wall time."""
        sched = SerialScheduler()
        reg = MetricsRegistry(clock=lambda: sched.now)
        sched.schedule_after(3.5, lambda: None)
        with reg.timer("run"):
            sched.run()
        stats = reg.snapshot()["histograms"]["run"]
        assert stats["count"] == 1
        assert stats["total"] == pytest.approx(3.5)

    def test_timer_survives_exceptions(self):
        reg = MetricsRegistry(clock=lambda: 0.0)
        with pytest.raises(RuntimeError):
            with reg.timer("boom"):
                raise RuntimeError("boom")
        assert reg.snapshot()["histograms"]["boom"]["count"] == 1


class TestActiveRegistry:
    def test_metrics_scope_swaps_and_restores(self):
        outer = metrics()
        scoped = MetricsRegistry()
        with run_context(metrics=scoped):
            assert metrics() is scoped
            assert scoped is not outer
            metrics().counter("inner").inc()
        assert metrics() is outer
        assert "inner" not in outer.snapshot()["counters"]

    def test_set_metrics_returns_previous(self):
        outer = metrics()
        replacement = MetricsRegistry()
        with run_context(metrics=replacement):
            assert metrics() is replacement
            with run_context(metrics=MetricsRegistry()):
                assert metrics() is not replacement
            assert metrics() is replacement
        assert metrics() is outer
