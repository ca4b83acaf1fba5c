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

    @pytest.mark.parametrize("fraction", ["nan", "inf", "-1", "0"])
    def test_serve_bench_refuses_a_meaningless_load_fraction(
        self, fraction, monkeypatch
    ):
        from repro.evaluation import serving
        from repro.exceptions import ValidationError

        def unbuilt(cfg):
            raise AssertionError("network built before the refusal")

        monkeypatch.setattr(serving, "_build", unbuilt)
        with pytest.raises(ValidationError, match="load_fraction"):
            main(self._ARGS + ["--load-fraction", fraction])


@pytest.mark.slow
class TestOutFiles:
    """One ``--out`` writer: every report file is newline-terminated JSON."""

    @pytest.mark.parametrize("argv", [
        ["report", "--peers", "5", "--queries", "2"],
        TestCliServeBench._ARGS,
        ["scale-bench", "--peers", "32", "--queries", "2",
         "--baseline-peers", "8"],
    ], ids=lambda argv: argv[0])
    def test_out_file_is_newline_terminated_json(
        self, argv, tmp_path, capsys
    ):
        import json

        path = tmp_path / "out.json"
        assert main([*argv, "--out", str(path)]) == 0
        text = path.read_text()
        assert text.endswith("}\n")
        assert json.loads(text)
        assert f"{argv[0]}: wrote {path}" in capsys.readouterr().out


class TestRunScopes:
    """Flags exist only where they are read (the run-context tests
    themselves live in ``tests/test_runtime.py``)."""

    @pytest.mark.parametrize(
        "flag", [
            ["--adapt"], ["--overlay", "baton"], ["--republish", "delta"],
            ["--fault-plan", "loss=0.1"], ["--plot"], ["--scale", "paper"],
        ]
    )
    def test_scale_bench_rejects_network_flags(self, flag, capsys):
        # scale-bench bulk-builds bare CAN grids on a clean fabric, not a
        # HyperMNetwork: the network-shaping flags, the scale preset and
        # the chart are an argparse error, not ignored (--fault-plan used
        # to get as far as a traceback out of Network.transmit_bulk).
        with pytest.raises(SystemExit) as raised:
            main(["scale-bench", "--peers", "32", *flag])
        assert raised.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_scale_bench_keeps_run_flags(self):
        from repro.cli import build_parser

        args = build_parser().parse_args([
            "scale-bench", "--peers", "32", "--seed", "4", "--json",
            "--engine", "sharded", "--workers", "2",
        ])
        assert (args.engine, args.workers, args.seed) == ("sharded", 2, 4)
        # No such flags here, so main() reads them as unset.
        assert (args.adapt, args.overlay, args.fault_plan) == (
            False, None, None
        )

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_scale_bench_rejects_workers_below_one(self, workers, capsys):
        # Used to be clamped to 1 silently; the report then read 1.
        with pytest.raises(SystemExit) as raised:
            main([
                "scale-bench", "--peers", "32", "--engine", "sharded",
                "--workers", workers,
            ])
        assert raised.value.code == 2
        assert "--workers: must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, floor", [
        (["stats", "--churn", "-3"], 0),
        (["trace", "fig8a", "--depth", "0"], 1),
        (["profile", "fig8a", "--top", "-2"], 1),
        (["report", "--top-k", "-1"], 0),
        (["report", "--queries", "-5"], 0),
        *(
            pytest.param(argv, floor, id=f"{argv[0]}{argv[-2]}-{floor}")
            for argv, floor in [
                (["adapt", "--queries", "-1"], 0),
                (["adapt", "--epoch-queries", "-1"], 0),
                (["faults", "--max-peers", "-1"], 0),
                (["serve-bench", "--queries", "0"], 1),
                (["serve-bench", "--distinct", "0"], 1),
                (["serve-bench", "--batch-size", "0"], 1),
                (["serve-bench", "--max-peers", "-1"], 0),
                (["serve-bench", "--repeats", "0"], 1),
                (["scale-bench", "--queries", "0"], 1),
                (["scale-bench", "--spheres-per-peer", "0"], 1),
                (["scale-bench", "--baseline-peers", "1"], 2),
                (["fig8a", "--peers", "0"], 1),
                (["scale-bench", "--peers", "0"], 1),
                (["fig10a", "--seed", "-1"], 0),
            ]
        ),
    ], ids=lambda value: value[-2] if isinstance(value, list) else None)
    def test_count_flags_refuse_values_below_their_floor(
        self, argv, floor, capsys
    ):
        # Each used to be clamped, passed on to print a wrong table, or
        # refused by its runner with a traceback; now it is an argparse
        # error like --workers 0, before anything runs.
        with pytest.raises(SystemExit) as raised:
            main(argv)
        assert raised.value.code == 2
        assert f"{argv[-2]}: must be >= {floor}" in capsys.readouterr().err

    def test_kademlia_is_not_a_backend(self, capsys):
        from repro.exceptions import ValidationError
        from repro.overlay.registry import resolve_overlay

        with pytest.raises(SystemExit) as raised:
            main(["fig8a", "--overlay", "kademlia"])
        assert raised.value.code == 2
        assert "invalid choice: 'kademlia'" in capsys.readouterr().err
        with pytest.raises(ValidationError) as refused:
            resolve_overlay("kademlia")
        assert str(refused.value).endswith("known backends: can, baton, vbi")

    def test_ring_is_not_a_backend(self, capsys):
        from repro.exceptions import ValidationError
        from repro.overlay.registry import resolve_overlay

        with pytest.raises(SystemExit) as raised:
            main(["fig8a", "--overlay", "ring"])
        assert raised.value.code == 2
        assert "invalid choice: 'ring'" in capsys.readouterr().err
        with pytest.raises(ValidationError) as refused:
            resolve_overlay("ring")
        assert str(refused.value).endswith("known backends: can, baton, vbi")
