"""Tests for the observability schema validators and the fused run report.

Real artefacts (produced by the actual recorders and ``run_report``)
must validate cleanly; mutated ones must produce one problem string per
defect; the ``python -m repro.obs.schema`` CLI must gate files the way
CI relies on.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro import cli
from repro.core.network import HyperMConfig, HyperMNetwork
from repro.evaluation.report import (
    collect_bench_reports,
    render_markdown,
    run_report,
)
from repro.exceptions import ValidationError
from repro.obs.flight import FlightRecorder
from repro.obs.loadmap import build_loadmap
from repro.obs.schema import (
    check_flight_record,
    check_jsonl,
    check_loadmap,
    check_report,
    check_report_file,
    check_trace_record,
    main as schema_main,
)
from repro.runtime import run_context

REPORT_KNOBS = {
    "n_peers": 5,
    "items_per_peer": 20,
    "dimensionality": 16,
    "n_queries": 2,
    "seed": 0,
}


@pytest.fixture(scope="module")
def report():
    return run_report(**REPORT_KNOBS)


@pytest.fixture(scope="module")
def flight_artifacts():
    net = HyperMNetwork(
        8, HyperMConfig(levels_used=2, n_clusters=2), rng=1
    )
    rec = FlightRecorder()
    with run_context(flight=rec):
        data = np.random.default_rng(2).random((2, 10, 8))
        for rows in data:
            net.add_peer(rows)
        net.publish_all()
        net.range_query(data[0][0], 0.5)
    return rec


class TestTraceRecordChecker:
    VALID = {
        "span": "publish", "id": 1, "parent": None, "depth": 0,
        "start": 0.0, "end": 1.0, "duration": 1.0,
        "attrs": {}, "counts": {},
    }

    def test_valid(self):
        assert check_trace_record(self.VALID) == []

    def test_missing_field(self):
        record = dict(self.VALID)
        del record["depth"]
        assert "missing field 'depth'" in check_trace_record(record)[0]

    def test_wrong_type(self):
        record = dict(self.VALID, id="one")
        assert "field 'id' has type str" in check_trace_record(record)[0]

    def test_negative_depth(self):
        record = dict(self.VALID, depth=-1)
        assert "negative depth" in check_trace_record(record)[0]


class TestFlightRecordChecker:
    def test_real_records_validate(self, flight_artifacts):
        for record in flight_artifacts.to_records():
            assert check_flight_record(record) == []

    def test_unknown_status(self, flight_artifacts):
        record = dict(flight_artifacts.edges[0].to_record(), status="lost")
        assert "unknown status" in check_flight_record(record)[0]

    def test_bad_attempt_and_seq(self, flight_artifacts):
        edge = flight_artifacts.edges[0].to_record()
        assert "attempt" in check_flight_record(dict(edge, attempt=0))[0]
        assert "negative seq" in check_flight_record(dict(edge, seq=-1))[0]

    def test_op_with_negative_counter(self, flight_artifacts):
        op = dict(flight_artifacts.op_summaries()[0], hops=-1)
        assert "negative hops" in check_flight_record(op)[0]


class TestJsonlChecker:
    def test_clean_file(self, tmp_path, flight_artifacts):
        path = tmp_path / "flight.jsonl"
        flight_artifacts.write_jsonl(path)
        assert check_jsonl(path, check_flight_record) == []

    def test_invalid_json_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"ok": 1\nnot json\n')
        problems = check_jsonl(path, check_trace_record)
        assert any("invalid JSON" in p for p in problems)

    def test_non_object_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("[1, 2, 3]\n")
        assert "not an object" in check_jsonl(path, check_trace_record)[0]


class TestLoadmapChecker:
    def test_real_loadmap_validates(self, flight_artifacts):
        # Any published network will do; rebuild a tiny one.
        net = HyperMNetwork(
            8, HyperMConfig(levels_used=2, n_clusters=2), rng=1
        )
        net.add_peer(np.random.default_rng(3).random((10, 8)))
        net.publish_all()
        assert check_loadmap(build_loadmap(net)) == []

    def test_missing_section(self):
        assert "missing section 'skew'" in check_loadmap(
            {"generations": {}, "zones": [], "peers": [], "hotspots": {}}
        )[0]

    def test_zone_row_missing_field(self):
        loadmap = {
            "generations": {}, "peers": [],
            "hotspots": {"zones": [], "peers": []},
            "skew": {},
            "zones": [{"level": "0"}],
        }
        problems = check_loadmap(loadmap)
        assert any("zones[0]" in p for p in problems)


class TestReportChecker:
    def test_real_report_validates(self, report):
        assert check_report(report) == []

    def test_missing_section(self, report):
        broken = {k: v for k, v in report.items() if k != "loadmap"}
        assert "missing section 'loadmap'" in check_report(broken)[0]

    def test_meta_fields_required(self, report):
        broken = dict(report, meta={"command": "report"})
        problems = check_report(broken)
        assert any("seed" in p for p in problems)

    def test_report_file(self, tmp_path, report):
        path = tmp_path / "report.json"
        path.write_text(json.dumps(report))
        assert check_report_file(path) == []
        path.write_text("{broken")
        assert "invalid JSON" in check_report_file(path)[0]


class TestSchemaCli:
    def test_all_valid(self, tmp_path, report, flight_artifacts, capsys):
        report_path = tmp_path / "report.json"
        report_path.write_text(json.dumps(report))
        flight_path = tmp_path / "flight.jsonl"
        flight_artifacts.write_jsonl(flight_path)
        code = schema_main(
            [str(report_path), "--flight", str(flight_path)]
        )
        assert code == 0
        assert "schema OK (2 file(s))" in capsys.readouterr().out

    def test_malformed_fails(self, tmp_path, capsys):
        path = tmp_path / "flight.jsonl"
        path.write_text('{"op": 1}\n')
        assert schema_main(["--flight", str(path)]) == 1
        assert "missing field" in capsys.readouterr().err

    def test_nothing_to_validate_errors(self):
        with pytest.raises(SystemExit):
            schema_main([])


class TestRunReport:
    def test_artifacts_written_and_valid(self, tmp_path):
        trace_path = tmp_path / "trace.jsonl"
        flight_path = tmp_path / "flight.jsonl"
        report = run_report(
            **REPORT_KNOBS,
            trace_out=trace_path,
            flight_out=flight_path,
        )
        assert check_report(report) == []
        assert check_jsonl(trace_path, check_trace_record) == []
        assert check_jsonl(flight_path, check_flight_record) == []

    def test_report_fuses_every_plane(self, report):
        assert report["stats"]["fabric"]["messages"] > 0
        assert report["energy"]["total"] > 0
        assert report["operations"]["insert"]["ops"] > 0
        assert report["flight"]["edges"] > 0
        assert report["phases"], "expected span flame rows"
        assert report["loadmap"]["hotspots"]["zones"]

    @pytest.mark.parametrize("knob", ["n_queries", "top_k"])
    def test_negative_counts_refused_before_any_network(self, knob, monkeypatch):
        # n_queries=-5 used to run 0 queries and record -5 in meta.
        import repro.evaluation.report as report_module

        def no_network(**kwargs):
            raise AssertionError("a network was built")

        monkeypatch.setattr(report_module, "build_markov_network", no_network)
        with pytest.raises(ValidationError, match=f"{knob} must be >= 0"):
            run_report(**{**REPORT_KNOBS, knob: -5})

    def test_bench_dir_fusion(self, tmp_path):
        (tmp_path / "BENCH_demo.json").write_text('{"speedup": 5.0}')
        (tmp_path / "BENCH_broken.json").write_text("{nope")
        found = collect_bench_reports(tmp_path)
        assert found["demo"] == {"speedup": 5.0}
        assert "error" in found["broken"]
        assert collect_bench_reports(tmp_path / "missing") == {}

    def test_render_markdown(self, report):
        text = render_markdown(report)
        assert "# Hyper-M run report" in text
        assert "fabric totals" in text
        assert "per-operation routing cost" in text
        assert "load skew" in text
        assert "hottest zones" in text


class TestReportCli:
    def test_json_output(self, capsys):
        code = cli.main([
            "report", "--peers", "5", "--seed", "1",
            "--queries", "2", "--json",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert check_report(payload) == []
        assert payload["meta"]["seed"] == 1

    def test_out_writes_schema_valid_file(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        flight = tmp_path / "flight.jsonl"
        code = cli.main([
            "report", "--peers", "5", "--seed", "0", "--queries", "2",
            "--out", str(out), "--flight-out", str(flight),
        ])
        assert code == 0
        assert check_report_file(out) == []
        assert check_jsonl(flight, check_flight_record) == []
        assert "# Hyper-M run report" in capsys.readouterr().out
