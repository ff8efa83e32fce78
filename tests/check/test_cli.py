"""The ``repro check`` CLI: golden-cell enumeration and end-to-end runs."""

import pytest

from repro.check.cli import build_parser, golden_cells, main
from repro.runner.experiments import FIGURES


class TestGoldenCells:
    def test_every_figure_enumerates(self):
        for fig in ("fig4", "fig5", "fig6", "fig7"):
            cells = golden_cells(fig)
            assert cells, fig
            for cell in cells:
                assert cell["algo"]
                assert cell["n"] >= 2
                assert cell["w"] >= 1

    def test_cells_are_the_figure_tables_distinct_cells(self):
        # Fig 5 pins WRHT's m to Lemma 1 (2w+1); Figs 6/7 leave it to the
        # builder; Fig 7's E-Ring and O-Ring share one Ring cell.
        lineup = ("Ring", "H-Ring", "BT", "WRHT")
        expected = {
            "fig4": [("WRHT", 1024, 64, m) for m in (17, 33, 65, 129)],
            "fig5": [(a, 1024, w, 2 * w + 1) for a in lineup
                     for w in (4, 16, 64, 256)],
            "fig6": [(a, n, 64, None) for a in lineup
                     for n in (1024, 2048, 3072, 4096)],
            "fig7": [(a, n, 64, None) for a in ("Ring", "RD", "WRHT")
                     for n in (128, 256, 512, 1024)],
        }
        assert list(FIGURES) == list(expected)
        for fig, figure in FIGURES.items():
            from_table = []
            for algo in figure.algos.values():
                for x in figure.x_values:
                    cell = (algo, *figure.cell(x))
                    if cell not in from_table:
                        from_table.append(cell)
            got = [
                (c["algo"], c["n"], c["w"], c["wrht_m"]) for c in golden_cells(fig)
            ]
            assert got == from_table == expected[fig], fig
        assert sum(len(cells) for cells in expected.values()) == 48

    def test_unknown_figure_rejected(self):
        with pytest.raises(ValueError, match="unknown figure"):
            golden_cells("fig99")


class TestCheckCommand:
    def test_fig5_analytic_verifies_clean(self, capsys):
        assert main(
            ["check", "--fig", "fig5", "--backend", "analytic", "-v"]
        ) == 0
        out = capsys.readouterr().out
        assert "ok" in out
        assert "clean" in out
        assert "FAIL" not in out

    def test_fig7_electrical_verifies_clean(self, capsys):
        assert main(["check", "--fig", "fig7", "--backend", "electrical"]) == 0
        assert "FAIL" not in capsys.readouterr().out

    def test_lint_subcommand_clean_on_src(self):
        assert main(["lint", "src"]) == 0


class TestParser:
    def test_default_backend_is_optical(self):
        args = build_parser().parse_args(["check"])
        assert args.backend == "optical"

    def test_choices_are_the_figure_table_and_backend_registry(self):
        from repro.backend import registry

        parser = build_parser()
        for fig in FIGURES:
            assert parser.parse_args(["check", "--fig", fig]).fig == fig
        for name in registry.available():
            assert parser.parse_args(["check", "--backend", name]).backend == name

    def test_runner_cli_forwards_check(self, capsys):
        from repro.runner.cli import main as runner_main

        code = runner_main(
            ["check", "--fig", "fig5", "--backend", "analytic"]
        )
        assert code == 0
        assert "clean" in capsys.readouterr().out
