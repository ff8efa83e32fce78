"""The ``wrht-repro obs`` CLI: table, metrics summary, manifest, forwarding."""

import json

import pytest

from repro.backend.base import Backend
from repro.dnn.workload import workload_by_name
from repro.obs.cli import main as obs_main
from repro.obs.manifest import SCHEMA
from repro.runner.cli import main as runner_main
from repro.runner.experiments import run_fig4, run_fig5, run_fig6, run_fig7

# A cheap cell: fig5 at w=8 on 64 nodes (the default N=1024 would route
# thousands of transfers per step).
CELL = ["fig5", "--x", "8", "--nodes", "64", "--workload", "AlexNet"]


class TestObsCli:
    def test_renders_table_and_metrics(self, capsys):
        assert obs_main(CELL) == 0
        out = capsys.readouterr().out
        assert "fig5 cell: WRHT on AlexNet" in out
        assert "wavelengths=8" in out
        assert "stage" in out and "time %" in out  # timing table header
        assert "counters:" in out
        assert "rwa.rounds" in out
        assert "spans (wall clock):" in out

    def test_no_metrics_flag_drops_the_summary(self, capsys):
        assert obs_main([*CELL, "--no-metrics"]) == 0
        out = capsys.readouterr().out
        assert "stage" in out
        assert "counters:" not in out

    def test_manifest_written(self, tmp_path, capsys):
        path = tmp_path / "cell.json"
        assert obs_main([*CELL, "--manifest", str(path)]) == 0
        manifest = json.loads(path.read_text())
        assert manifest["schema"] == SCHEMA
        assert manifest["extra"]["figure"] == "fig5"
        assert manifest["extra"]["x"] == 8
        assert manifest["metrics"]["counters"]
        assert manifest["config"]["hash"]

    def test_unknown_algo_for_figure_rejected(self, capsys):
        assert obs_main(["fig4", "--algo", "E-Ring"]) == 2
        assert "no algorithm 'E-Ring'" in capsys.readouterr().err

    def test_runner_cli_forwards_verbatim(self, capsys):
        # ``wrht-repro obs ...`` must behave exactly like ``python -m
        # repro.obs ...`` — including leading optionals that argparse
        # REMAINDER would otherwise swallow.
        assert runner_main(["obs", *CELL, "--no-metrics"]) == 0
        assert "fig5 cell: WRHT on AlexNet" in capsys.readouterr().out

    def test_unknown_backend_rejected_by_parser(self, capsys):
        with pytest.raises(SystemExit) as exc:
            obs_main(["fig6", "--backend", "bogus"])
        assert exc.value.code == 2
        assert "invalid choice: 'bogus'" in capsys.readouterr().err


def _bits(result):
    """Every float of a result's total and timeline, as exact hex."""
    return (
        result.backend,
        result.total_time.hex(),
        tuple(
            (r.stage, r.count, float(r.duration).hex(),
             float(r.bytes_per_step).hex(),
             r.n_transfers, r.rounds, r.peak_wavelength, r.max_link_share)
            for r in result.timeline
        ),
    )


@pytest.fixture
def captured_runs(monkeypatch):
    """Every ExecutionResult ``Backend.run`` returns while the test runs."""
    runs = []
    original = Backend.run

    def recording(self, schedule, **kwargs):
        result = original(self, schedule, **kwargs)
        runs.append(result)
        return result

    monkeypatch.setattr(Backend, "run", recording)
    return runs


_FIG5 = {"mode": "simulated", "n_nodes": 64, "wavelengths": (16,)}
_FIG6 = {"mode": "simulated", "nodes": (64,)}
_FIG7 = {"mode": "analytical", "nodes": (128,)}


class TestSingleConstructionPath:
    """An obs cell is bit-identical to the figure runner's grid cell: both
    read the figure table and build their backend through
    ``experiments.build_backend``. Every figure's full line-up is covered
    at one x; ``index`` is the display name's place in the line-up."""

    @pytest.mark.parametrize(
        ("argv", "runner", "kwargs", "index", "backend"),
        [
            # Optical: fig6 WRHT (runner leaves m to build_schedule).
            (["fig6", "--x", "64", "--algo", "WRHT", "--mode", "simulated"],
             run_fig6, _FIG6, 3, "optical"),
            (["fig5", "--x", "16", "--algo", "H-Ring", "--nodes", "64",
              "--mode", "simulated"],
             run_fig5, _FIG5, 1, "optical"),
            # Electrical: fig7's E-Ring is on the fat-tree in every mode.
            (["fig7", "--x", "128", "--algo", "E-Ring", "--mode", "analytical"],
             run_fig7, _FIG7, 0, "electrical"),
            # Analytic: covers the ReconfigModel(t_tune=0) the runner passes.
            (["fig4", "--x", "17", "--mode", "analytical"],
             run_fig4, {"mode": "analytical", "group_sizes": (17,)}, 0,
             "analytic"),
            # The rest of each line-up at the same x.
            *[
                (["fig5", "--x", "16", "--algo", algo, "--nodes", "64",
                  "--mode", "simulated"], run_fig5, _FIG5, index, "optical")
                for index, algo in ((0, "Ring"), (2, "BT"), (3, "WRHT"))
            ],
            *[
                (["fig6", "--x", "64", "--algo", algo, "--mode", "simulated"],
                 run_fig6, _FIG6, index, "optical")
                for index, algo in ((0, "Ring"), (1, "H-Ring"), (2, "BT"))
            ],
            (["fig7", "--x", "128", "--algo", "RD", "--mode", "analytical"],
             run_fig7, _FIG7, 1, "electrical"),
            (["fig7", "--x", "128", "--algo", "O-Ring", "--mode", "analytical"],
             run_fig7, _FIG7, 2, "analytic"),
            (["fig7", "--x", "128", "--algo", "WRHT", "--mode", "analytical"],
             run_fig7, _FIG7, 3, "analytic"),
        ],
    )
    def test_obs_cell_matches_figure_cell(
        self, argv, runner, kwargs, index, backend, captured_runs, capsys
    ):
        assert obs_main([*argv, "--workload", "ResNet50", "--no-metrics"]) == 0
        (obs_result,) = captured_runs
        captured_runs.clear()
        runner(workloads=(workload_by_name("ResNet50"),), **kwargs)
        fig_result = captured_runs[index]
        assert obs_result.backend == backend
        assert _bits(obs_result) == _bits(fig_result)
