"""Tests for span tracing: nesting, scheduler interplay, JSONL round-trip."""

import json

import pytest

from repro import runtime
from repro.net import SerialScheduler
from repro.obs.profile import flame_summary, phase_rows, span_tree
from repro.obs.trace import (
    NULL_RECORDER,
    NULL_SPAN,
    NullRecorder,
    TraceRecorder,
    read_jsonl,
)


class TestSpanNesting:
    def test_parent_child_depth(self):
        rec = TraceRecorder(clock=lambda: 0.0)
        with rec.span("outer") as outer:
            with rec.span("inner") as inner:
                pass
        assert outer.parent_id is None
        assert outer.depth == 0
        assert inner.parent_id == outer.span_id
        assert inner.depth == 1
        assert [s.name for s in rec.spans] == ["outer", "inner"]

    def test_annotate_targets_innermost(self):
        rec = TraceRecorder(clock=lambda: 0.0)
        with rec.span("outer") as outer:
            with rec.span("inner") as inner:
                rec.annotate(items=7)
        assert inner.attrs["items"] == 7
        assert "items" not in outer.attrs

    def test_add_accumulates_onto_all_open_spans(self):
        rec = TraceRecorder(clock=lambda: 0.0)
        with rec.span("outer") as outer:
            rec.add(hops=1)
            with rec.span("inner") as inner:
                rec.add(hops=2, bytes=10)
        assert outer.counts["hops"] == 3
        assert outer.counts["bytes"] == 10
        assert inner.counts["hops"] == 2

    def test_exception_closes_span_and_flags_error(self):
        rec = TraceRecorder(clock=lambda: 0.0)
        with pytest.raises(RuntimeError):
            with rec.span("boom"):
                raise RuntimeError("nope")
        assert rec.open_depth == 0
        assert rec.spans[0].attrs["error"] == "RuntimeError"


class TestSchedulerInterplay:
    def test_simultaneous_events_do_not_interleave_spans(self):
        """Two events at the same virtual time each open+close their own
        span inside their callback; the spans must come out as siblings
        (depth 0), never nested into each other."""
        sched = SerialScheduler()
        rec = TraceRecorder(clock=lambda: sched.now)

        def handler(name):
            def run():
                with rec.span(name):
                    pass
            return run

        sched.schedule_at(1.0, handler("event_a"))
        sched.schedule_at(1.0, handler("event_b"))
        sched.run()
        assert [s.name for s in rec.spans] == ["event_a", "event_b"]
        assert all(s.depth == 0 for s in rec.spans)
        assert all(s.parent_id is None for s in rec.spans)
        # Simulated timestamps coincide; ordering still follows FIFO seq.
        assert rec.spans[0].start == rec.spans[1].start == 1.0

    def test_span_timestamps_follow_virtual_clock(self):
        sched = SerialScheduler()
        rec = TraceRecorder(clock=lambda: sched.now)
        span_ctx = rec.span("window")
        span = span_ctx.__enter__()
        sched.schedule_after(4.0, lambda: None)
        sched.run()
        span_ctx.__exit__(None, None, None)
        assert span.start == 0.0
        assert span.end == 4.0
        assert span.duration == pytest.approx(4.0)


class TestNullRecorder:
    def test_disabled_and_records_nothing(self):
        rec = NullRecorder()
        assert rec.enabled is False
        with rec.span("anything", attr=1) as span:
            rec.annotate(x=1)
            rec.add(hops=5)
        assert span is NULL_SPAN
        assert list(rec.spans) == []

    def test_null_span_is_shared_and_inert(self):
        with NULL_RECORDER.span("a") as first:
            pass
        with NULL_RECORDER.span("b") as second:
            first.set(anything=1)
        assert first is second is NULL_SPAN

    def test_default_global_recorder_is_null(self):
        assert runtime.current.tracer.enabled is False

    def test_set_recorder_none_restores_null(self):
        rec = TraceRecorder()
        with runtime.run_context(tracer=rec):
            assert runtime.current.tracer is rec
        assert runtime.current.tracer is NULL_RECORDER


class TestTracingContext:
    def test_tracing_installs_and_restores(self):
        rec = TraceRecorder()
        assert runtime.current.tracer.enabled is False
        with runtime.run_context(tracer=rec):
            assert runtime.current.tracer is rec
        assert runtime.current.tracer.enabled is False


class TestJsonlRoundTrip:
    def test_traced_range_query_round_trips(
        self, tiny_histogram_workload, tmp_path
    ):
        """Acceptance check: trace a real range query, write JSONL, read
        it back, and verify the span tree's per-level candidate/pruned
        counts are internally consistent with the result set."""
        wl = tiny_histogram_workload
        query = wl.ground_truth.data[3]
        rec = TraceRecorder()
        with runtime.run_context(tracer=rec):
            result = wl.network.range_query(query, 0.15, max_peers=4)

        path = tmp_path / "trace.jsonl"
        written = rec.write_jsonl(path)
        assert written == len(rec.spans) > 0

        records = read_jsonl(path)
        assert [r["id"] for r in records] == [s.span_id for s in rec.spans]
        # Every line is standalone JSON with the same sorted-key shape.
        for line in path.read_text().splitlines():
            assert json.loads(line) in records

        roots = span_tree(records)
        assert len(roots) == 1
        query_span = roots[0]
        assert query_span["span"] == "query"
        assert query_span["attrs"]["type"] == "range"
        assert query_span["attrs"]["items"] == len(result.item_ids)

        filters = [
            r for r in records if r["span"].startswith("sphere_filter[")
        ]
        assert filters, "expected one sphere_filter span per level"
        for record in filters:
            attrs = record["attrs"]
            assert attrs["candidates"] == attrs["pruned"] + attrs["surviving"]
            assert record["parent"] == query_span["id"]
        # If the query returned anything, some sphere must have survived
        # filtering (no false dismissals at the trace level either).
        surviving_total = sum(r["attrs"]["surviving"] for r in filters)
        if result.item_ids:
            assert surviving_total > 0

    def test_profile_reductions_match_trace(self):
        clock_values = iter([0.0, 1.0, 3.0, 6.0])
        rec = TraceRecorder(clock=lambda: next(clock_values))
        with rec.span("outer"):
            rec.add(hops=1)
            with rec.span("inner"):
                rec.add(hops=2)
        rows = {row["phase"]: row for row in phase_rows(rec.spans)}
        assert rows["outer"]["total_s"] == pytest.approx(6.0)
        assert rows["outer"]["self_s"] == pytest.approx(4.0)
        assert rows["outer"]["hops"] == 3
        assert rows["outer"]["self_hops"] == 1
        assert rows["inner"]["hops"] == 2
        flame = flame_summary(rec.spans)
        assert "outer" in flame and "inner" in flame


class TestNoOpOverheadPath:
    def test_instrumented_code_runs_clean_with_tracing_off(
        self, tiny_histogram_workload
    ):
        """With the default NullRecorder installed the instrumented query
        path must behave identically and record nothing."""
        assert runtime.current.tracer.enabled is False
        wl = tiny_histogram_workload
        query = wl.ground_truth.data[0]
        result = wl.network.range_query(query, 0.12, max_peers=4)
        assert runtime.current.tracer.enabled is False
        assert result.item_ids is not None
