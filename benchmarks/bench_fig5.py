"""Figure 5 — four algorithms under 4/16/64/256 wavelengths (N=1024).

Paper claims (Sec 5.4): WRHT's time falls with w then flattens; Ring and BT
are wavelength-invariant; H-Ring dips slightly after w=4; at w=4 Ring
beats WRHT on the big models (BEiT/VGG16). Reported average reductions:
WRHT vs Ring 13.74%, vs H-Ring 9.29%, vs BT 75%.
"""

from benchmarks.conftest import print_experiment
from repro.runner.experiments import FIGURES, run_fig5

PAPER = FIGURES["fig5"].reductions


def test_fig5_analytical(once):
    result = once(run_fig5, mode="analytical")
    print_experiment(result, PAPER)

    for wl in result.workloads:
        wrht = result.series[(wl, "WRHT")]
        assert wrht[0] >= wrht[1] >= wrht[2] >= wrht[3]
        assert wrht[2] == wrht[3]  # flattens at w >= 64
        assert len(set(result.series[(wl, "Ring")])) == 1
        assert len(set(result.series[(wl, "BT")])) == 1
        hring = result.series[(wl, "H-Ring")]
        assert hring[0] > hring[1] == hring[2] == hring[3]
    # Fig 5(b) observation.
    for big in ("BEiT-L", "VGG16"):
        assert result.cell(big, "WRHT", 4) > result.cell(big, "Ring", 4)
        assert result.cell(big, "WRHT", 4) > result.cell(big, "H-Ring", 4)
    # Average reductions: same sign and order as the paper.
    assert result.reduction_vs("BT") > 60
    assert 0 < result.reduction_vs("H-Ring")
    assert 0 < result.reduction_vs("Ring")


def test_fig5_simulated(once):
    result = once(run_fig5, mode="simulated")
    print_experiment(result, PAPER)
    for wl in result.workloads:
        assert result.cell(wl, "WRHT", 256) <= result.cell(wl, "WRHT", 4)
