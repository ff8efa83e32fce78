"""Figure 7 — electrical fat-tree vs optical ring (128…1024 nodes).

E-Ring and Recursive Doubling run on the fluid fat-tree simulation; O-Ring
and WRHT on the optical ring (w=64). Paper claims (Sec 5.6): E-Ring
highest, RD below it at scale, O-Ring well below both (−48.74% vs E-Ring on
average), WRHT lowest (−61.23% vs E-Ring, −55.51% vs RD).
"""

from benchmarks.conftest import print_experiment
from repro.runner.experiments import FIGURES, run_fig7

PAPER = FIGURES["fig7"].reductions


def test_fig7(once):
    result = once(run_fig7, mode="analytical")
    print_experiment(result, PAPER)

    for wl in result.workloads:
        for n in result.x_values:
            # Optical beats electrical for the same Ring algorithm — the
            # paper's headline optical-vs-electrical claim, everywhere.
            assert result.cell(wl, "O-Ring", n) < result.cell(wl, "E-Ring", n), (wl, n)
            # WRHT beats both electrical baselines everywhere.
            wrht = result.cell(wl, "WRHT", n)
            assert wrht < result.cell(wl, "E-Ring", n), (wl, n)
            assert wrht < result.cell(wl, "RD", n), (wl, n)
        # WRHT lowest overall at the smallest and the paper-scale points.
        # (At mid-N our model has a genuine O-Ring/WRHT crossover for the
        # largest gradients — 3·d payload vs 2·d — that the paper's bars do
        # not show; see EXPERIMENTS.md.)
        for n in (result.x_values[0], result.x_values[-1]):
            assert result.cell(wl, "WRHT", n) == min(
                result.cell(wl, algo, n) for algo in result.algorithms()
            ), (wl, n)
        # Everything but WRHT grows with the cluster; WRHT stays near-flat.
        for algo in ("E-Ring", "RD", "O-Ring"):
            series = result.series[(wl, algo)]
            assert series[-1] > series[0]
        wrht_series = result.series[(wl, "WRHT")]
        assert max(wrht_series) < 2.0 * min(wrht_series)

    # RD below E-Ring at scale for the latency-bound workload (ResNet50).
    # For the bandwidth-bound models our RD (full-vector exchanges through
    # ECMP collisions) exceeds E-Ring — documented divergence.
    assert result.cell("ResNet50", "RD", 1024) < result.cell("ResNet50", "E-Ring", 1024)

    # Headline averages: O-Ring's matches the paper closely; WRHT vs E-Ring
    # almost exactly; WRHT vs RD overshoots (our fat-tree RD pays ECMP
    # collision congestion; see EXPERIMENTS.md).
    assert 40 < result.reduction_vs("E-Ring", "O-Ring") < 60   # paper 48.74
    assert 50 < result.reduction_vs("E-Ring", "WRHT") < 72     # paper 61.23
    assert result.reduction_vs("RD", "WRHT") > 55.51           # paper 55.51
