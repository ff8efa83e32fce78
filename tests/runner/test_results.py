"""Results-document generator tests."""

from pathlib import Path

import pytest

from repro.runner.experiments import FIGURES
from repro.runner.results import (
    PAPER_TABLE1,
    _markdown_table,
    generate_report,
    write_report,
)

ROOT = Path(__file__).resolve().parents[2]


class TestMarkdownTable:
    def test_structure(self):
        out = _markdown_table(["a", "b"], [[1, 2.5], ["x", 3]])
        lines = out.splitlines()
        assert lines[0] == "| a | b |"
        assert lines[1] == "|---|---|"
        assert "| 1 | 2.5 |" in lines
        assert "| x | 3 |" in lines


class TestGenerateReport:
    @pytest.fixture(scope="class")
    def report(self):
        return generate_report(
            collectives_baseline=str(ROOT / "BENCH_collectives.json")
        )

    def test_matches_committed_results_byte_for_byte(self, report):
        assert report == (ROOT / "RESULTS.md").read_text(encoding="utf-8")

    def test_contains_every_experiment(self, report):
        for section in ("Table 1", "fig4", "fig5", "fig6", "fig7"):
            assert section in report

    def test_contains_paper_anchors(self, report):
        for name, steps in PAPER_TABLE1.items():
            assert f"| {name} | {steps} | {steps} |" in report

    def test_contains_reduction_comparisons(self, report):
        for figure in FIGURES.values():
            for baseline, target, _ in figure.reductions:
                assert f"{target} vs {baseline}" in report

    def test_contains_all_workloads(self, report):
        for workload in ("BEiT-L", "VGG16", "AlexNet", "ResNet50"):
            assert workload in report

    def test_write_report_round_trips(self, tmp_path, report):
        path = tmp_path / "RESULTS.md"
        text = write_report(str(path))
        assert path.read_text() == text
        assert "Table 1" in text
