"""Smoke tests for the remaining CLI commands (tiny scales)."""

import pytest

from repro.cli import main


@pytest.mark.slow
class TestCliCommands:
    def test_fig9(self, capsys):
        assert main(["fig9", "--peers", "6"]) == 0
        out = capsys.readouterr().out
        assert "Figure 9" in out
        assert "original" in out

    def test_cknob(self, capsys):
        assert main(["cknob", "--peers", "6"]) == 0
        out = capsys.readouterr().out
        assert "C-knob" in out

    def test_stats(self, capsys):
        assert main(["stats", "--peers", "4", "--churn", "1"]) == 0
        out = capsys.readouterr().out
        assert "per-level store health" in out
        assert "tombstones" in out

    def test_stats_json(self, capsys):
        import json

        assert main(["stats", "--peers", "4", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["stats"]["levels"]
        for level_stats in payload["stats"]["levels"].values():
            assert "store" in level_stats

    def test_fig8c(self, capsys):
        assert main(["fig8c", "--peers", "6"]) == 0
        out = capsys.readouterr().out
        assert "Figure 8c" in out
        assert "CAN (full dim)" in out

    def test_construction(self, capsys):
        assert main(["construction", "--peers", "6"]) == 0
        out = capsys.readouterr().out
        assert "makespan" in out

    def test_fig8b_with_plot(self, capsys):
        assert main(["fig8b", "--peers", "6", "--plot"]) == 0
        out = capsys.readouterr().out
        assert "hops/item vs total items" in out
        assert "o=Hyper-M" in out

    def test_fig10c_with_plot(self, capsys):
        assert main(["fig10c", "--peers", "8", "--plot"]) == 0
        out = capsys.readouterr().out
        assert "recall vs new-document fraction" in out


@pytest.mark.slow
class TestCliFaults:
    def test_faults_sweep(self, capsys):
        assert main([
            "faults", "--peers", "8", "--loss", "0", "0.1", "--seed", "4",
        ]) == 0
        out = capsys.readouterr().out
        assert "Resilience" in out
        assert "recall_mean" in out

    def test_faults_json(self, capsys):
        import json

        assert main([
            "faults", "--peers", "8", "--loss", "0.1", "--json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["experiment"] == "faults"
        assert payload["records"][0]["loss"] == 0.1
        assert 0.0 <= payload["records"][0]["recall_mean"] <= 1.0

    def test_fault_plan_flag(self, capsys):
        """--fault-plan makes any experiment run on a lossy fabric."""
        assert main([
            "fig10c", "--peers", "6",
            "--fault-plan", "loss=0.1,seed=3",
        ]) == 0
        out = capsys.readouterr().out
        assert "Figure 10c" in out

    def test_fault_plan_rejects_bad_spec(self):
        from repro.exceptions import ValidationError

        with pytest.raises(ValidationError):
            main(["fig9", "--peers", "6", "--fault-plan", "warp=9"])


@pytest.mark.slow
class TestCliServeBench:
    _ARGS = [
        "serve-bench", "--peers", "6", "--queries", "16",
        "--distinct", "6", "--repeats", "1",
    ]

    def test_serve_bench_table(self, capsys):
        assert main(self._ARGS) == 0
        out = capsys.readouterr().out
        assert "serve-bench" in out
        assert "hot speedup" in out
        assert "open-loop p99" in out

    def test_serve_bench_json_and_out(self, capsys, tmp_path):
        import json

        out_path = tmp_path / "serve.json"
        assert main(self._ARGS + ["--json", "--out", str(out_path)]) == 0
        stdout = capsys.readouterr().out
        payload = json.loads(stdout[stdout.index("{"):])
        assert payload["benchmark"] == "query_serve"
        assert payload["speedup"] > 0
        assert payload["load"]["requests"] == 16
        saved = json.loads(out_path.read_text())
        assert saved["benchmark"] == "query_serve"


class TestRunScopes:
    """``main`` enters every requested ambient scope on one ExitStack."""

    @staticmethod
    def _ambient():
        from repro.engine import active_engine_config
        from repro.faults import state as faults_state
        from repro.overlay.adapt import active_adapt_config
        from repro.overlay.registry import active_overlay_factory

        return {
            "adapt": active_adapt_config(),
            "overlay": active_overlay_factory(),
            "plan": faults_state.active_plan(),
            "engine": active_engine_config(),
        }

    def test_all_scopes_active_during_dispatch_and_unwound_after(
        self, monkeypatch
    ):
        from repro import cli
        from repro.overlay.registry import resolve_overlay

        before = self._ambient()
        seen = {}

        def dispatch(args):
            seen.update(self._ambient())
            return 0

        monkeypatch.setattr(cli, "_dispatch", dispatch)
        assert main([
            "fig9", "--adapt", "--overlay", "ring",
            "--fault-plan", "loss=0.1,seed=3",
            "--engine", "sharded", "--workers", "3",
        ]) == 0
        assert seen["adapt"] is not None
        assert seen["overlay"] is resolve_overlay("ring")
        assert seen["plan"].loss == 0.1
        assert (seen["engine"].engine, seen["engine"].workers) == (
            "sharded", 3
        )
        assert self._ambient() == before

    def test_no_flags_enters_no_scope(self, monkeypatch):
        from repro import cli

        before = self._ambient()
        seen = {}
        monkeypatch.setattr(
            cli, "_dispatch", lambda args: seen.update(self._ambient()) or 0
        )
        assert main(["fig9"]) == 0
        assert seen == before

    def test_scopes_unwind_when_the_command_raises(self, monkeypatch):
        from repro import cli

        before = self._ambient()

        def dispatch(args):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli, "_dispatch", dispatch)
        with pytest.raises(RuntimeError):
            main(["fig9", "--adapt", "--overlay", "baton", "--engine", "serial"])
        assert self._ambient() == before

    @pytest.mark.parametrize(
        "flag", [["--adapt"], ["--overlay", "ring"], ["--republish", "delta"]]
    )
    def test_scale_bench_rejects_network_flags(self, flag, capsys):
        # scale-bench builds bare CAN grids, not a HyperMNetwork: the
        # network-shaping flags are an argparse error, not ignored.
        with pytest.raises(SystemExit) as raised:
            main(["scale-bench", "--peers", "32", *flag])
        assert raised.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_scale_bench_keeps_run_flags(self):
        from repro.cli import build_parser

        args = build_parser().parse_args([
            "scale-bench", "--peers", "32", "--seed", "4", "--json",
            "--engine", "sharded", "--workers", "2",
            "--fault-plan", "loss=0",
        ])
        assert (args.engine, args.workers, args.seed) == ("sharded", 2, 4)
        assert not hasattr(args, "adapt")
