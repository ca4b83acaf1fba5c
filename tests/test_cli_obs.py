"""Tests for the CLI observability surface: --json, trace, profile,
and the kwargs-filtering contract between commands and runners."""

import json
import warnings

import pytest

from repro.cli import build_parser, main
from repro.evaluation.experiments import (
    _SIGNATURE_CACHE,
    EXPERIMENTS,
    _filter_kwargs,
    run_experiment,
    scale_params,
)

RUNNERS = [row.runner for row in EXPERIMENTS.values()]


class TestFilterKwargs:
    @pytest.mark.parametrize("func", RUNNERS, ids=lambda f: f.__name__)
    def test_every_runner_accepts_the_common_param_dict(self, func):
        """Every registered experiment must digest the common scale/seed
        dict without warnings — silently dropping a *common* knob is fine,
        but nothing in the common dict may be flagged as unexpected."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            kwargs = _filter_kwargs(func, scale_params("quick", seed=0))
        assert "rng" in kwargs

    def test_warns_on_misspelled_override(self):
        run_fig8a = EXPERIMENTS["fig8a"].runner
        params = dict(scale_params("quick", seed=0), n_peersss=3)
        with pytest.warns(UserWarning, match="n_peersss"):
            kwargs = _filter_kwargs(run_fig8a, params)
        assert "n_peersss" not in kwargs
        # run_experiment hands undeclared keywords to the same filter.
        with pytest.warns(UserWarning, match="n_peersss"):
            run_experiment(
                "fig11", scale="quick", seed=1, peers=5, n_peersss=3
            )

    def test_signatures_are_cached(self):
        run_fig11 = EXPERIMENTS["fig11"].runner
        _filter_kwargs(run_fig11, {})
        assert run_fig11 in _SIGNATURE_CACHE
        cached = _SIGNATURE_CACHE[run_fig11]
        _filter_kwargs(run_fig11, {"rng": 0})
        assert _SIGNATURE_CACHE[run_fig11] is cached


class TestJsonFlag:
    def test_experiment_json_payload(self, capsys):
        assert main(["fig11", "--peers", "5", "--seed", "1", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["experiment"] == "fig11"
        assert payload["scale"] == "quick"
        assert payload["seed"] == 1
        assert payload["records"], "expected at least one record"
        assert {"counters", "gauges", "histograms"} <= set(payload["metrics"])
        spaces = {record["space"] for record in payload["records"]}
        assert "original" in spaces

    def test_json_metrics_capture_publish_counters(self, capsys):
        assert main(["fig8a", "--peers", "6", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        counters = payload["metrics"]["counters"]
        assert counters.get("publish.operations", 0) > 0
        assert counters.get("publish.spheres", 0) > 0


class TestProfileCommand:
    def test_profile_prints_phase_table(self, capsys):
        assert main(["profile", "fig8a", "--peers", "6"]) == 0
        out = capsys.readouterr().out
        assert "profile — fig8a" in out
        assert "phase" in out and "self_s" in out and "hops" in out
        assert "publish" in out
        assert "metrics snapshot" in out

    def test_profile_rejects_unknown_experiment(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["profile", "fig99"])


class TestTraceCommand:
    def test_trace_writes_jsonl(self, capsys, tmp_path):
        out_path = tmp_path / "trace.jsonl"
        assert main(
            ["trace", "fig8a", "--peers", "6", "--out", str(out_path)]
        ) == 0
        printed = capsys.readouterr().out
        assert "spans" in printed
        lines = out_path.read_text().splitlines()
        assert lines
        records = [json.loads(line) for line in lines]
        assert all("span" in record for record in records)
        # fig8a publishes peers: the full publish pipeline must be there.
        names = {record["span"] for record in records}
        assert "publish" in names
        assert "dwt" in names
        assert any(name.startswith("kmeans[") for name in names)
        assert any(name.startswith("can_insert[") for name in names)

    def test_tracing_is_disabled_again_after_trace_run(self):
        from repro import runtime

        assert runtime.current.tracer.enabled is False


class TestAllJson:
    def test_parser_accepts_json_on_all(self):
        args = build_parser().parse_args(["all", "--json"])
        assert args.json is True
