"""The full evaluation through the experiment table: every row run once
with ``run_experiment``, then rendered as the Markdown report."""

import json

import pytest

from repro.evaluation.experiments import (
    EXPERIMENTS,
    render_markdown,
    run_experiment,
)


@pytest.fixture(scope="module")
def outputs():
    return [
        run_experiment(name, scale="quick", seed=3, peers=5)
        for name in EXPERIMENTS
    ]


@pytest.mark.slow
class TestFullReport:
    def test_every_experiment_present(self, outputs):
        assert [out.name for out in outputs] == [
            "fig8a", "fig8b", "fig8c", "fig9", "fig10a", "fig10b", "fig10c",
            "cknob", "fig11", "construction", "faults", "adapt", "matrix",
        ]
        assert [out.title for out in outputs] == [
            row.title for row in EXPERIMENTS.values()
        ]

    def test_records_are_json_safe(self, outputs):
        for out in outputs:
            assert out.records, out.name
            assert {"counters", "gauges", "histograms"} <= set(out.metrics)
        json.dumps([(out.records, out.metrics) for out in outputs])

    def test_tables_rendered(self, outputs):
        for out in outputs:
            assert out.text.startswith(out.title)
            assert "|" in out.text

    def test_markdown_rendering(self, outputs):
        text = render_markdown(outputs)
        assert text.startswith("# Hyper-M")
        assert text.count("## ") == len(outputs)
        assert "Figure 10a" in text
        for out in outputs:
            assert f"## {out.title}\n\n```\n{out.text}\n" in text

    def test_bad_scale_rejected(self):
        with pytest.raises(ValueError):
            run_experiment("fig11", scale="huge", seed=0)
