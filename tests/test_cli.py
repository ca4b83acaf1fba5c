"""Tests for the experiment CLI."""

import contextlib
import io
import json

import pytest

from repro import cli
from repro.cli import build_parser, main
from repro.evaluation.experiments import EXPERIMENTS, ExperimentOutput


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_parses_known_commands(self):
        for name in EXPERIMENTS:
            args = build_parser().parse_args([name])
            assert args.command == name
            assert args.scale == "quick"

    def test_overrides(self):
        args = build_parser().parse_args(
            ["fig8a", "--peers", "7", "--seed", "3", "--scale", "paper"]
        )
        assert args.peers == 7
        assert args.seed == 3
        assert args.scale == "paper"

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig99"])


class TestMain:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        lines = capsys.readouterr().out.splitlines()
        # One line per sub-command, carrying that command's --help line.
        listed = {line.split()[0]: line for line in lines}
        usage = build_parser().format_usage()
        assert ",".join(listed) == usage[usage.index("{") + 1:usage.index("}")]
        for name, row in EXPERIMENTS.items():
            assert listed[name].endswith(row.help)

    def test_fig11_runs(self, capsys):
        assert main(["fig11", "--peers", "5", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "Figure 11" in out
        assert "original" in out

    def test_fig8a_runs_quick(self, capsys):
        assert main(["fig8a", "--peers", "6"]) == 0
        out = capsys.readouterr().out
        assert "Figure 8a" in out
        assert "clusters_per_peer" in out


def _stdout_of(argv) -> str:
    captured = io.StringIO()
    with contextlib.redirect_stdout(captured):
        assert main(argv) == 0
    return captured.getvalue()


@pytest.mark.slow
class TestAll:
    """``repro all`` is the table, whole and in order, in every mode,
    and honours the flags ``repro <name>`` honours."""

    _FLAGS = ["--peers", "5", "--seed", "1"]

    @pytest.fixture(scope="class")
    def as_json(self):
        return json.loads(_stdout_of(["all", *self._FLAGS, "--json"]))

    @pytest.mark.parametrize("name", ["fig8a", "fig11"])
    def test_entry_equals_the_single_experiment_run(self, as_json, name):
        single = json.loads(_stdout_of([name, *self._FLAGS, "--json"]))
        (entry,) = [e for e in as_json if e["experiment"] == name]
        assert entry["records"] == single["records"]
        assert entry["metrics"] == single["metrics"]
        assert entry == single

    def test_every_mode_emits_the_table_in_order(
        self, as_json, monkeypatch, tmp_path
    ):
        names = list(EXPERIMENTS)
        assert [entry["experiment"] for entry in as_json] == names
        # The other two modes print the same loop; a stand-in runner
        # keeps this to the one real 13-experiment run above.
        monkeypatch.setattr(
            cli, "run_experiment",
            lambda name, **flags: ExperimentOutput(
                name, EXPERIMENTS[name].title, [], f"table of {name}", {}
            ),
        )
        text = _stdout_of(["all", *self._FLAGS])
        assert text == "".join(
            f"\n### {name}\ntable of {name}\n" for name in names
        )
        path = tmp_path / "report.md"
        assert _stdout_of(["all", "--output", str(path)]) == (
            f"wrote {len(names)} experiment reports to {path}\n"
        )
        assert [
            line[3:] for line in path.read_text().splitlines()
            if line.startswith("## ")
        ] == [row.title for row in EXPERIMENTS.values()]
