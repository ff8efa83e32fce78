"""Figure 6 — optical-system comparison across 1024…4096 nodes (w=64).

Paper claims (Sec 5.5): WRHT lowest for every DNN at every scale and nearly
flat in N; Ring rises linearly; H-Ring rises more slowly; BT worst for
BEiT/VGG16 but competitive on ResNet50. Reported average reductions:
WRHT vs Ring 65.23%, vs H-Ring 43.81%, vs BT 82.22%.
"""

from benchmarks.conftest import print_experiment
from repro.runner.experiments import FIGURES, run_fig6

PAPER = FIGURES["fig6"].reductions


def test_fig6_analytical(once):
    result = once(run_fig6, mode="analytical")
    print_experiment(result, PAPER)

    for wl in result.workloads:
        for algo in ("Ring", "H-Ring", "BT"):
            for n in result.x_values:
                assert result.cell(wl, "WRHT", n) < result.cell(wl, algo, n)
        # Ring linear rise, H-Ring slower growth, WRHT near-flat.
        ring = result.series[(wl, "Ring")]
        hring = result.series[(wl, "H-Ring")]
        wrht = result.series[(wl, "WRHT")]
        assert ring[-1] > ring[0]
        assert (hring[-1] / hring[0]) < (ring[-1] / ring[0])
        assert max(wrht) < 1.5 * min(wrht)
    # BT worst on the big models, competitive on ResNet50.
    for n in result.x_values:
        for big in ("BEiT-L", "VGG16"):
            assert result.cell(big, "BT", n) == max(
                result.cell(big, a, n) for a in ("Ring", "H-Ring", "BT", "WRHT")
            )
    assert result.cell("ResNet50", "BT", 1024) < result.cell("ResNet50", "Ring", 1024)

    # Average reductions within the calibrated model's band of the paper.
    assert 55 < result.reduction_vs("Ring") < 80      # paper 65.23
    assert 35 < result.reduction_vs("H-Ring") < 60    # paper 43.81
    assert 75 < result.reduction_vs("BT") < 92        # paper 82.22


def test_fig6_simulated(once):
    result = once(run_fig6, mode="simulated")
    print_experiment(result, PAPER)
    for wl in result.workloads:
        for algo in ("Ring", "H-Ring", "BT"):
            for n in result.x_values:
                assert result.cell(wl, "WRHT", n) < result.cell(wl, algo, n)
    assert 55 < result.reduction_vs("Ring") < 80
