"""The scale benchmark runner: smoke, parity, and CLI surface."""

from __future__ import annotations

import json
from types import SimpleNamespace

import numpy as np
import pytest

from repro.cli import main as cli_main
from repro.core.queries import level_plan
from repro.core.scoring import level_scores_scalar
from repro.engine import SerialEngine
from repro.evaluation.scale import run_scale_bench
from repro.exceptions import ValidationError
from repro.overlay.can import build_grid_can, bulk_publish
from repro.wavelets.multiresolution import publication_levels


def _small(**overrides):
    cfg = {
        "n_peers": 64,
        "spheres_per_peer": 2,
        "n_queries": 4,
        "baseline_peers": 16,
        "seed": 0,
    }
    cfg.update(overrides)
    return run_scale_bench(**cfg)


class TestRunner:
    def test_serial_smoke(self):
        report = _small()
        assert report["benchmark"] == "scale"
        assert report["engine"] == "serial"
        assert report["spheres_published"] == 64 * 2 * report["levels_used"]
        assert report["peers_per_s"] > 0
        assert report["queries_per_s"] > 0
        assert report["bulk_speedup"] > 0
        assert report["resources"]["peak_rss_bytes"] > 0
        assert report["fabric"]["messages"] > 0
        # The serial engine answers to the scalar oracle too (ISSUE 23):
        # it shares its join with the sharded arm, so neither can vouch
        # for the other.
        assert report["parity"]["checked"] == 4
        assert report["parity"]["max_abs_delta"] <= 1e-9

    def test_serial_answers_to_an_oracle_that_shares_no_join(
        self, monkeypatch
    ):
        """A join that loses a peer is caught on the serial engine: the
        oracle never calls ``aggregate_scores``."""
        from repro.core import queries

        real = queries.aggregate_scores

        def lossy(per_level, *, policy):
            scores = real(per_level, policy=policy)
            scores.pop(min(scores, default=None), None)
            return scores

        monkeypatch.setattr(queries, "aggregate_scores", lossy)
        with pytest.raises(ValidationError, match="serial scoring diverged"):
            _small(epsilon=0.6)

    def test_sharded_matches_serial_scores(self):
        serial = _small()
        sharded = _small(engine="sharded", workers=2)
        # The runner itself enforces 1e-9 parity pre-timing; a run that
        # completed proves it held.
        assert sharded["parity"]["checked"] == 4
        assert sharded["parity"]["max_abs_delta"] <= 1e-9
        assert sharded["mean_peers_ranked"] == serial["mean_peers_ranked"]
        assert sharded["engine_snapshot"]["epochs"] > 0

    def test_grid_recorded_per_level(self):
        report = _small()
        assert len(report["grid"]) == report["levels_used"]
        for counts in report["grid"].values():
            n_cells = 1
            for c in counts:
                n_cells *= c
            assert n_cells >= 64

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_peers": 0},
            {"spheres_per_peer": 0},
            {"n_queries": 0},
            {"baseline_peers": 1},
            {"epsilon": -1.0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValidationError):
            _small(**kwargs)


class TestItemCounts:
    """``bulk_publish`` forwards item counts, so Eq. 1 scores are real."""

    N_PEERS, DIM = 64, 16

    def _grid(self, level, rng, *, with_items):
        n = 2 * self.N_PEERS
        keys = rng.random((n, level.dimensionality))
        radii = 0.05 + 0.2 * rng.random(n)
        items = 1.0 + np.arange(n) % 7
        peer_ids = np.repeat(np.arange(self.N_PEERS), 2)
        can, plan = build_grid_can(level.dimensionality, self.N_PEERS, rng=0)
        bulk_publish(
            can, plan, keys, radii, peer_ids=peer_ids,
            items=items if with_items else None,
        )
        entries = [
            SimpleNamespace(
                key=keys[row], radius=float(radii[row]),
                value=SimpleNamespace(
                    peer_id=int(peer_ids[row]), items=float(items[row])
                ),
            )
            for row in range(n)
        ]
        return can.level_store, entries

    def test_counts_reach_engine_scores(self):
        rng = np.random.default_rng(5)
        levels = publication_levels(self.DIM, 3)
        engine = SerialEngine()
        entries = {}
        for index, level in enumerate(levels):
            store, entries[level] = self._grid(level, rng, with_items=True)
            engine.register_store(index, store)
        plan = level_plan(self.DIM, levels, rng.random(self.DIM), 0.4)
        tasks = [
            (index, key, radius)
            for index, (key, radius) in enumerate(plan.values())
        ]
        for level, scores in zip(levels, engine.score_levels(tasks)):
            key, radius = plan[level]
            oracle = level_scores_scalar(entries[level], key, radius)
            assert scores.keys() == oracle.keys()
            assert any(value > 0.0 for value in scores.values())
            for peer, value in scores.items():
                assert value == pytest.approx(oracle[peer], abs=1e-9)

    def test_default_stays_at_zero_counts(self):
        level = publication_levels(self.DIM, 1)[0]
        store, __ = self._grid(
            level, np.random.default_rng(6), with_items=False
        )
        engine = SerialEngine()
        engine.register_store(0, store)
        key = np.full(level.dimensionality, 0.5)
        (scores,) = engine.score_levels([(0, key, 0.5)])
        assert scores and set(scores.values()) == {0.0}

    def test_sharded_parity_compares_nonzero_scores(self, monkeypatch):
        from repro.evaluation import scale

        seen = []
        real = scale._score_parity

        def spy(engine_scores, oracle_scores):
            seen.append(max(engine_scores.values(), default=0.0))
            return real(engine_scores, oracle_scores)

        monkeypatch.setattr(scale, "_score_parity", spy)
        report = _small(engine="sharded", workers=2, epsilon=0.6)
        assert report["parity"]["checked"] == 4
        assert report["parity"]["max_abs_delta"] <= 1e-9
        assert max(seen) > 0.0


class TestCli:
    def test_scale_bench_writes_json(self, tmp_path, capsys):
        out = tmp_path / "bench.json"
        code = cli_main([
            "scale-bench", "--peers", "64", "--queries", "4",
            "--baseline-peers", "16", "--engine", "sharded",
            "--workers", "2", "--out", str(out),
        ])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["engine"] == "sharded"
        assert report["n_peers"] == 64
        assert report["parity"]["max_abs_delta"] <= 1e-9
        assert "scale-bench" in capsys.readouterr().out

    def test_scale_bench_json_flag(self, capsys):
        code = cli_main([
            "scale-bench", "--peers", "32", "--queries", "2",
            "--baseline-peers", "8", "--json",
        ])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["benchmark"] == "scale"
        assert report["engine"] == "serial"
