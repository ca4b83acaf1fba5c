"""Figure 10a — range-query recall vs number of peers contacted.

Paper claim: precision is constantly 100%; recall climbs towards ~96% as
more peers are contacted, and more clusters per peer helps.
"""

from repro.evaluation.effectiveness import run_fig10a
from repro.evaluation.experiments import EXPERIMENTS


def test_fig10a_range_recall(benchmark, record_table):
    out = benchmark.pedantic(
        lambda: run_fig10a(
            n_peers=25,
            n_objects=150,
            views_per_object=12,
            cluster_counts=(5, 10, 20),
            peers_contacted_sweep=(1, 2, 4, 6, 8, 12, 16, 20),
            radii=(0.08, 0.12, 0.16),
            n_queries=15,
            rng=8_005,
        ),
        rounds=1,
        iterations=1,
    )
    __, table = EXPERIMENTS["fig10a"].hook(
        out,
        title="Figure 10a — range recall vs peers contacted "
        "(mean (min-max)); precision is 100% by construction",
    )
    record_table("fig10a_range_recall", table)
    for series in out.values():
        assert series[-1].mean >= series[0].mean  # recall rises with P
        assert series[-1].mean > 0.9  # high recall once enough peers seen
