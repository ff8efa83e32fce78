"""CLI tests (parser wiring and command output)."""

import pytest

from repro.runner.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_all_commands_registered(self):
        parser = build_parser()
        for cmd in ("table1", "fig4", "fig5", "fig6", "fig7", "plan", "verify", "all"):
            args = parser.parse_args([cmd] if cmd != "verify" else [cmd, "ring"])
            assert callable(args.fn)


class TestCommands:
    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "2046" in out and "Ring" in out and "WRHT" in out

    def test_table1_custom_size(self, capsys):
        assert main(["table1", "--nodes", "256", "--wavelengths", "16"]) == 0
        assert "510" in capsys.readouterr().out

    def test_plan(self, capsys):
        assert main(["plan", "--nodes", "1024", "--wavelengths", "64"]) == 0
        out = capsys.readouterr().out
        assert "m=129" in out and "θ=3" in out

    def test_plan_with_phy(self, capsys):
        assert main(["plan", "--phy"]) == 0

    def test_plan_forced_group_size(self, capsys):
        assert main(["plan", "--group-size", "17"]) == 0
        assert "m=17" in capsys.readouterr().out

    @pytest.mark.parametrize("algo", ["ring", "bt", "rd", "hring", "wrht"])
    def test_verify(self, algo, capsys):
        assert main(["verify", algo, "--nodes", "16"]) == 0
        assert "verified" in capsys.readouterr().out

    def test_fig4(self, capsys):
        assert main(["fig4"]) == 0
        out = capsys.readouterr().out
        assert "fig4" in out and "normalized" in out

    def test_fig6_summary(self, capsys):
        assert main(["fig6"]) == 0
        out = capsys.readouterr().out
        assert "WRHT vs Ring" in out and "avg reduction" in out

    def test_show(self, capsys):
        assert main(["show", "wrht", "--nodes", "15", "--wavelengths", "2"]) == 0
        out = capsys.readouterr().out
        assert "3 steps x 15 nodes" in out
        assert "legend:" in out

    def test_show_other_algorithms(self, capsys):
        for algo in ("ring", "bt", "rd", "hring"):
            assert main(["show", algo, "--nodes", "8"]) == 0

    def test_report(self, tmp_path, capsys):
        path = str(tmp_path / "OUT.md")
        assert main(["report", "--output", path]) == 0
        text = open(path).read()
        assert "Table 1" in text and "fig7" in text
        assert "wrote" in capsys.readouterr().out


class TestBackendFlag:
    def test_choices_come_from_registry(self):
        from repro.backend import registry

        parser = build_parser()
        args = parser.parse_args(["fig5", "--backend", "analytic"])
        assert args.backend == "analytic"
        for name in registry.available():
            parser.parse_args(["fig5", "--backend", name])

    def test_unknown_backend_rejected_by_parser(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig5", "--backend", "quantum"])

    def test_fig5_analytic_matches_default(self, capsys):
        # Analytical mode already prices through the analytic backend, so
        # forcing it must reproduce the default output verbatim.
        assert main(["fig5"]) == 0
        default = capsys.readouterr().out
        assert main(["fig5", "--backend", "analytic"]) == 0
        assert capsys.readouterr().out == default

    def test_report_notes_backend_override(self, tmp_path):
        path = str(tmp_path / "OUT.md")
        assert main(["report", "--output", path, "--backend", "analytic"]) == 0
        assert "Backend override: analytic." in open(path).read()


class TestReportFlags:
    """``report`` accepts only the flags it forwards to ``write_report``."""

    @pytest.mark.parametrize("flag", [["--t-tune", "1e-5"], ["--no-overlap"]])
    def test_unhonoured_flag_rejected(self, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["report", "--output", "unused.md", *flag])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_honoured_flags_parse(self):
        args = build_parser().parse_args([
            "report", "--mode", "simulated", "--interpretation", "strict",
            "--backend", "analytic", "--output", "R.md",
        ])
        assert (args.mode, args.interpretation, args.backend, args.output) == (
            "simulated", "strict", "analytic", "R.md"
        )
        assert not hasattr(args, "t_tune")

