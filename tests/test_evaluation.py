"""Tests for evaluation metrics, workloads, and reporting."""

import numpy as np
import pytest

from repro.evaluation.metrics import (
    f1_score,
    participation_fraction,
    precision_recall,
)
from repro.evaluation.reporting import rows_to_table, series_to_table
from repro.evaluation.workloads import (
    build_histogram_network,
    build_markov_network,
    insert_post_hoc,
    sample_queries,
)
from repro.exceptions import ValidationError
from repro.utils.stats import gini


class TestPrecisionRecall:
    def test_perfect(self):
        pr = precision_recall({1, 2, 3}, {1, 2, 3})
        assert pr.precision == 1.0 and pr.recall == 1.0 and pr.f1 == 1.0

    def test_partial(self):
        pr = precision_recall({1, 2, 3, 4}, {3, 4, 5, 6})
        assert pr.precision == 0.5
        assert pr.recall == 0.5

    def test_empty_conventions(self):
        assert precision_recall(set(), {1}).precision == 1.0
        assert precision_recall({1}, set()).recall == 1.0
        assert precision_recall(set(), set()).f1 == 1.0

    def test_f1(self):
        assert f1_score({1, 2}, {2, 3}) == pytest.approx(0.5)

    def test_zero_f1(self):
        assert precision_recall({1}, {2}).f1 == 0.0


class TestGini:
    def test_uniform_is_zero(self):
        assert gini([5, 5, 5, 5]) == pytest.approx(0.0)

    def test_concentrated_is_high(self):
        g = gini([0, 0, 0, 100])
        assert g == pytest.approx(0.75)

    def test_all_zero(self):
        assert gini([0, 0, 0]) == 0.0

    def test_scale_invariant(self):
        a = gini([1, 2, 3, 4])
        b = gini([10, 20, 30, 40])
        assert a == pytest.approx(b)

    def test_negative_rejected(self):
        with pytest.raises(ValidationError):
            gini([-1, 2])


class TestParticipation:
    def test_full(self):
        assert participation_fraction([1, 2, 3]) == 1.0

    def test_half(self):
        assert participation_fraction([0, 0, 1, 1]) == 0.5


class TestWorkloads:
    def test_markov_workload(self):
        from repro.core.network import HyperMConfig

        wl, report = build_markov_network(
            n_peers=5, items_per_peer=20, dimensionality=16,
            config=HyperMConfig(levels_used=2, n_clusters=3), rng=0,
        )
        assert wl.network.n_peers == 5
        assert report.items_published == 100

    def test_histogram_workload_holdout(self):
        from repro.core.network import HyperMConfig

        wl = build_histogram_network(
            n_peers=5, n_objects=20, views_per_object=6, n_bins=32,
            config=HyperMConfig(levels_used=2, n_clusters=3),
            rng=0, holdout_fraction=0.25,
        )
        assert wl.held_out_data.shape[0] == 30
        assert wl.ground_truth.n_items == 90

    def test_insert_post_hoc_updates_truth(self):
        from repro.core.network import HyperMConfig

        wl = build_histogram_network(
            n_peers=4, n_objects=15, views_per_object=6, n_bins=32,
            config=HyperMConfig(levels_used=2, n_clusters=2),
            rng=1, holdout_fraction=0.2,
        )
        before = wl.ground_truth.n_items
        added = insert_post_hoc(wl, 10, rng=2)
        assert added == 10
        assert wl.ground_truth.n_items == before + 10

    def test_insert_post_hoc_caps_at_available(self):
        from repro.core.network import HyperMConfig

        wl = build_histogram_network(
            n_peers=4, n_objects=15, views_per_object=6, n_bins=32,
            config=HyperMConfig(levels_used=2, n_clusters=2),
            rng=3, holdout_fraction=0.1,
        )
        available = wl.held_out_data.shape[0]
        assert insert_post_hoc(wl, available + 50, rng=4) == available

    def test_sample_queries(self, rng):
        data = rng.random((50, 8))
        queries = sample_queries(data, 5, rng=0)
        assert queries.shape == (5, 8)
        # Each query is an actual dataset row.
        for q in queries:
            assert any(np.array_equal(q, row) for row in data)

    def test_sample_queries_jitter(self, rng):
        data = rng.random((50, 8))
        queries = sample_queries(data, 5, rng=0, jitter=0.05)
        assert queries.min() >= 0.0 and queries.max() <= 1.0


class TestReporting:
    def test_rows_to_table(self):
        from repro.evaluation.dissemination import Fig8cRow

        rows = [Fig8cRow(1, 0.5), Fig8cRow(2, 0.8)]
        out = rows_to_table(rows, title="T")
        assert "levels_used" in out
        assert "0.500" in out

    def test_rows_to_table_empty(self):
        assert rows_to_table([], title="T") == "T"

    def test_series_to_table(self):
        from repro.evaluation.effectiveness import RecallSeries

        series = {
            "a": [RecallSeries(1, 0.5, 0.4, 0.6)],
            "b": [RecallSeries(1, 0.7, 0.6, 0.8)],
        }
        out = series_to_table(series, x_name="peers")
        assert "0.500 (0.400-0.600)" in out

    def test_rows_to_table_type_error(self):
        with pytest.raises(TypeError):
            rows_to_table([1, 2, 3])
