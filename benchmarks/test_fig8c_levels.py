"""Figure 8c — average hops per item vs number of overlay levels.

Paper claim: insertion cost grows with the number of wavelet overlays but
even four levels stay far below per-item CAN insertion (plotted on a log
scale in the paper).
"""

from repro.evaluation.dissemination import run_fig8c
from repro.evaluation.experiments import EXPERIMENTS


def test_fig8c_levels(benchmark, record_table):
    rows, baselines = benchmark.pedantic(
        lambda: run_fig8c(
            n_peers=30,
            items_per_peer=500,
            dimensionality=64,
            n_clusters=10,
            levels_sweep=(1, 2, 3, 4, 5, 6),
            baseline_sample=60,
            rng=8_003,
        ),
        rounds=1,
        iterations=1,
    )
    __, table = EXPERIMENTS["fig8c"].hook(
        (rows, baselines),
        title="Figure 8c — hops per item vs overlay levels",
    )
    record_table("fig8c_levels", table)
    per_level = [row.hyperm_hops_per_item for row in rows]
    assert per_level == sorted(per_level)  # cost grows with levels
    # The paper's operating point (4 levels) still beats per-item CAN.
    four_levels = next(r for r in rows if r.levels_used == 4)
    assert four_levels.hyperm_hops_per_item < baselines.can_hops_per_item
