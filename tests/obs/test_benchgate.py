"""The bench gate: comparator unit tests plus the script's exit contract."""

import json
import subprocess
import sys
from pathlib import Path

from repro.obs.benchgate import (
    GateReport,
    GateViolation,
    compare_collectives,
    compare_faults,
    compare_reconfig,
    compare_repair,
    compare_rwa,
)

REPO_ROOT = Path(__file__).resolve().parent.parent.parent
GATE_SCRIPT = REPO_ROOT / "scripts" / "bench_gate.py"

_RWA_BASELINE = {
    "micro": [
        {"case": "dense-alltoall", "n": 64, "transfers": 240, "speedup": 12.0},
    ]
}

_FAULT_ROW = {
    "scenario": "cut-fiber", "backend": "optical", "n_survivors": 64,
    "healthy_s": 1e-4, "degraded_s": 2e-4, "slowdown_pct": 100.0,
    "availability": 0.5, "n_errors": 0,
}
_FAULT_BASELINE = {"scenarios": [dict(_FAULT_ROW)]}


class TestCompareRwa:
    def _row(self, **over):
        row = {"case": "dense-alltoall", "n": 64, "transfers": 240,
               "speedup": 11.0}
        row.update(over)
        return row

    def test_pass(self):
        report = compare_rwa([self._row()], _RWA_BASELINE, perf_floor=0.25)
        assert report.ok
        assert len(report.checked) == 2

    def test_perf_floor_breach(self):
        report = compare_rwa(
            [self._row(speedup=1.0)], _RWA_BASELINE, perf_floor=0.25
        )
        assert [v.kind for v in report.violations] == ["floor"]
        assert "0.25" in report.violations[0].allowed

    def test_above_floor_but_below_baseline_passes(self):
        # Wall clock is noisy: only a floor breach fails, not any slowdown.
        report = compare_rwa(
            [self._row(speedup=4.0)], _RWA_BASELINE, perf_floor=0.25
        )
        assert report.ok

    def test_transfer_count_exact(self):
        report = compare_rwa([self._row(transfers=239)], _RWA_BASELINE)
        assert [v.kind for v in report.violations] == ["exact"]

    def test_missing_baseline_row_is_a_violation(self):
        report = compare_rwa([self._row(n=256)], _RWA_BASELINE)
        assert {v.kind for v in report.violations} == {"missing-baseline"}
        assert len(report.violations) == 2  # transfers and speedup


_REPAIR_BASELINE = {
    "repair": [
        {"case": "dead-wavelength", "n": 1024, "transfers": 240,
         "fallbacks": 0, "speedup": 12.0},
    ]
}


class TestCompareRepair:
    def _row(self, **over):
        row = {"case": "dead-wavelength", "n": 1024, "transfers": 240,
               "fallbacks": 0, "speedup": 11.0}
        row.update(over)
        return row

    def test_pass(self):
        report = compare_repair([self._row()], _REPAIR_BASELINE)
        assert report.ok
        assert len(report.checked) == 3

    def test_perf_floor_breach_reports_measured_ratio(self):
        report = compare_repair(
            [self._row(speedup=1.2)], _REPAIR_BASELINE, perf_floor=0.25
        )
        assert [v.kind for v in report.violations] == ["floor"]
        # The violation message names the measured current/baseline ratio
        # (1.2 / 12.0 = 0.1x), not just the bound.
        assert "measured 0.1 x baseline" in report.violations[0].allowed

    def test_fallback_is_a_regression(self):
        report = compare_repair([self._row(fallbacks=1)], _REPAIR_BASELINE)
        assert [v.metric for v in report.violations] == [
            "repair.dead-wavelength.n1024.fallbacks"
        ]
        assert report.violations[0].kind == "exact"

    def test_transfer_count_exact(self):
        report = compare_repair([self._row(transfers=239)], _REPAIR_BASELINE)
        assert [v.kind for v in report.violations] == ["exact"]

    def test_missing_baseline_row(self):
        report = compare_repair([self._row(n=64)], _REPAIR_BASELINE)
        # fallbacks is gated against the constant 0 even without a baseline.
        assert len(report.violations) == 2
        assert {v.kind for v in report.violations} == {"missing-baseline"}


class TestCompareFaults:
    def test_pass(self):
        report = compare_faults([dict(_FAULT_ROW)], _FAULT_BASELINE)
        assert report.ok
        assert len(report.checked) == 6

    def test_rel_drift_fails(self):
        row = dict(_FAULT_ROW, availability=0.500001)
        report = compare_faults([row], _FAULT_BASELINE, rel_tol=1e-6)
        assert [v.metric for v in report.violations] == [
            "faults.cut-fiber.optical.availability"
        ]
        assert report.violations[0].kind == "rel"

    def test_rel_tolerance_is_configurable(self):
        row = dict(_FAULT_ROW, availability=0.500001)
        assert compare_faults([row], _FAULT_BASELINE, rel_tol=1e-3).ok

    def test_nonzero_check_errors_fail(self):
        row = dict(_FAULT_ROW, n_errors=2)
        report = compare_faults([row], _FAULT_BASELINE)
        assert "n_errors" in report.violations[0].metric

    def test_survivor_count_exact(self):
        row = dict(_FAULT_ROW, n_survivors=63)
        report = compare_faults([row], _FAULT_BASELINE)
        assert [v.kind for v in report.violations] == ["exact"]

    def test_missing_baseline_row(self):
        row = dict(_FAULT_ROW, scenario="unknown")
        report = compare_faults([row], _FAULT_BASELINE)
        # n_errors is gated against the constant 0 even without a baseline.
        assert len(report.violations) == 5
        assert {v.kind for v in report.violations} == {"missing-baseline"}


_CURVE_ROW = {
    "algorithm": "swing", "backend": "analytic", "n_nodes": 64,
    "elems": 100_000, "n_steps": 12, "total_time_s": 1e-3,
}
_COLLECTIVE_FAULT_ROW = {
    "algorithm": "scring-p4", "scenario": "cut-fiber", "n_survivors": 15,
    "healthy_s": 1e-4, "degraded_s": 2e-4, "availability": 0.5, "n_errors": 0,
}
_COLLECTIVES_BASELINE = {
    "curves": [dict(_CURVE_ROW)],
    "faults": [dict(_COLLECTIVE_FAULT_ROW)],
}


class TestCompareCollectives:
    def _current(self, curve_over=None, fault_over=None):
        return {
            "curves": [dict(_CURVE_ROW, **(curve_over or {}))],
            "faults": [dict(_COLLECTIVE_FAULT_ROW, **(fault_over or {}))],
        }

    def test_pass(self):
        report = compare_collectives(self._current(), _COLLECTIVES_BASELINE)
        assert report.ok
        # 2 curve fields + 5 fault fields.
        assert len(report.checked) == 7

    def test_step_count_exact(self):
        report = compare_collectives(
            self._current(curve_over={"n_steps": 13}), _COLLECTIVES_BASELINE
        )
        assert [v.metric for v in report.violations] == [
            "collectives.swing.analytic.n64.e100000.n_steps"
        ]
        assert report.violations[0].kind == "exact"

    def test_time_drift_fails_at_tight_tol(self):
        report = compare_collectives(
            self._current(curve_over={"total_time_s": 1.00001e-3}),
            _COLLECTIVES_BASELINE,
            rel_tol=1e-6,
        )
        assert [v.kind for v in report.violations] == ["rel"]
        assert compare_collectives(
            self._current(curve_over={"total_time_s": 1.00001e-3}),
            _COLLECTIVES_BASELINE,
            rel_tol=1e-3,
        ).ok

    def test_fault_row_must_verify_clean(self):
        # n_errors is gated against the constant 0, baseline or not.
        report = compare_collectives(
            self._current(fault_over={"n_errors": 3}), _COLLECTIVES_BASELINE
        )
        assert [v.metric for v in report.violations] == [
            "collectives.scring-p4.cut-fiber.n_errors"
        ]
        assert report.violations[0].kind == "exact"
        # Even without any baseline, a dirty row still fails.
        bare = compare_collectives(
            {"faults": [dict(_COLLECTIVE_FAULT_ROW, n_errors=3)]}, None
        )
        assert any(
            v.metric.endswith(".n_errors") and v.kind == "exact"
            for v in bare.violations
        )

    def test_missing_baseline_row(self):
        report = compare_collectives(
            self._current(curve_over={"n_nodes": 256}), _COLLECTIVES_BASELINE
        )
        assert {v.kind for v in report.violations} == {"missing-baseline"}
        assert len(report.violations) == 2  # n_steps and total_time_s


_RECONFIG_ROW = {
    "algorithm": "rd", "backend": "optical", "n_nodes": 8, "elems": 1_000_000,
    "t_tune_us": 25.0, "no_overlap_s": 2e-3, "overlap_s": 1.5e-3,
    "hold_s": 1.2e-3, "decision": "hold", "chosen_s": 1.2e-3, "n_errors": 0,
}
_RECONFIG_BASELINE = {"reconfig": [dict(_RECONFIG_ROW)]}


class TestCompareReconfig:
    def _row(self, **over):
        row = dict(_RECONFIG_ROW)
        row.update(over)
        return row

    def test_pass(self):
        report = compare_reconfig([self._row()], _RECONFIG_BASELINE)
        assert report.ok
        # 6 per-row fields + the baseline-independent overlap_wins check.
        assert len(report.checked) == 7

    def test_decision_flip_exact(self):
        report = compare_reconfig(
            [self._row(decision="reconfigure")], _RECONFIG_BASELINE
        )
        assert [v.metric for v in report.violations] == [
            "reconfig.rd.optical.n8.e1000000.decision"
        ]
        assert report.violations[0].kind == "exact"

    def test_time_drift_fails_at_tight_tol(self):
        report = compare_reconfig(
            [self._row(chosen_s=1.20001e-3)], _RECONFIG_BASELINE, rel_tol=1e-6
        )
        assert [v.kind for v in report.violations] == ["rel"]
        assert compare_reconfig(
            [self._row(chosen_s=1.20001e-3)], _RECONFIG_BASELINE, rel_tol=1e-3
        ).ok

    def test_row_must_verify_clean(self):
        # n_errors gates against the constant 0 even without a baseline.
        report = compare_reconfig([self._row(n_errors=2)], None)
        assert any(
            v.metric.endswith(".n_errors") and v.kind == "exact"
            for v in report.violations
        )

    def test_hold_feasibility_flip_is_exact(self):
        report = compare_reconfig([self._row(hold_s=None)], _RECONFIG_BASELINE)
        violations = [
            v for v in report.violations if v.metric.endswith(".hold_s")
        ]
        assert [v.kind for v in violations] == ["exact"]
        assert "None-ness" in violations[0].allowed

    def test_both_hold_none_passes(self):
        baseline = {
            "reconfig": [dict(_RECONFIG_ROW, hold_s=None, decision="hold-infeasible")]
        }
        current = [self._row(hold_s=None, decision="hold-infeasible")]
        assert compare_reconfig(current, baseline).ok

    def test_missing_baseline_row(self):
        report = compare_reconfig(
            [self._row(n_nodes=16)], _RECONFIG_BASELINE
        )
        # decision + 3 rel fields + hold_s; n_errors/overlap_wins still pass.
        assert {v.kind for v in report.violations} == {"missing-baseline"}
        assert len(report.violations) == 5

    def test_overlap_must_win_somewhere(self):
        stuck = self._row(overlap_s=_RECONFIG_ROW["no_overlap_s"])
        report = compare_reconfig(
            [stuck], {"reconfig": [dict(stuck)]}
        )
        assert [v.metric for v in report.violations] == ["reconfig.overlap_wins"]
        assert report.violations[0].kind == "floor"
        # Electrical-only rows carry no overlap machinery — no floor check.
        electric = self._row(
            backend="electrical", overlap_s=2e-3, chosen_s=2e-3,
            hold_s=None, decision="n/a",
        )
        assert compare_reconfig(
            [electric],
            {"reconfig": [dict(electric)]},
        ).ok


class TestGateReport:
    def test_merge_accumulates(self):
        a = GateReport(checked=["x"], violations=[])
        b = GateReport(
            checked=["y"],
            violations=[GateViolation("y", "rel", 1.0, 2.0, "<= 1e-6")],
        )
        assert a.merge(b) is a
        assert a.checked == ["x", "y"]
        assert not a.ok

    def test_to_dict_round_trips_through_json(self):
        report = compare_rwa([], _RWA_BASELINE)
        data = json.loads(json.dumps(report.to_dict()))
        assert data["ok"] is True
        assert data["n_checked"] == 0

    def test_render_mentions_counts(self):
        assert "0 violation(s)" in GateReport().render()


def _run_gate(*argv):
    return subprocess.run(
        [sys.executable, str(GATE_SCRIPT), "--skip-perf", *argv],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
        timeout=300,
    )


class TestBenchGateScript:
    def test_green_against_committed_baseline(self, tmp_path):
        out = tmp_path / "diff.json"
        proc = _run_gate("--json", str(out))
        assert proc.returncode == 0, proc.stdout + proc.stderr
        diff = json.loads(out.read_text())
        assert diff["ok"] is True

    def test_perturbed_baseline_fails(self, tmp_path):
        baseline = json.loads((REPO_ROOT / "BENCH_faults.json").read_text())
        baseline["scenarios"][0]["availability"] *= 0.9
        path = tmp_path / "perturbed.json"
        path.write_text(json.dumps(baseline))
        out = tmp_path / "diff.json"
        proc = _run_gate(
            "--baseline-faults", str(path), "--json", str(out)
        )
        assert proc.returncode == 1, proc.stdout + proc.stderr
        diff = json.loads(out.read_text())
        assert diff["ok"] is False
        assert any(
            v["metric"].endswith(".availability") for v in diff["violations"]
        )

    def test_missing_baseline_exits_2(self, tmp_path):
        proc = _run_gate("--baseline-faults", str(tmp_path / "absent.json"))
        assert proc.returncode == 2
        assert "missing or unreadable baseline" in proc.stderr

    def test_update_baseline_rewrites_measured_cells(self, tmp_path):
        """--update-baseline splices fresh rows into the pinned JSON; the
        deterministic fault rows must round-trip identically."""
        baseline = json.loads((REPO_ROOT / "BENCH_faults.json").read_text())
        baseline["scenarios"][0]["availability"] *= 0.9  # stale cell
        path = tmp_path / "stale.json"
        path.write_text(json.dumps(baseline))
        # Redirect the collectives baseline too so the test never rewrites
        # the committed BENCH_collectives.json.
        proc = _run_gate(
            "--update-baseline", "--baseline-faults", str(path),
            "--baseline-collectives", str(tmp_path / "collectives.json"),
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        updated = json.loads(path.read_text())
        committed = json.loads((REPO_ROOT / "BENCH_faults.json").read_text())
        assert updated["scenarios"] == committed["scenarios"]

    def test_update_baseline_creates_missing_file(self, tmp_path):
        path = tmp_path / "fresh.json"
        collectives = tmp_path / "collectives.json"
        proc = _run_gate(
            "--update-baseline", "--baseline-faults", str(path),
            "--baseline-collectives", str(collectives),
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert json.loads(path.read_text())["scenarios"]
        fresh = json.loads(collectives.read_text())
        assert fresh["curves"] and fresh["faults"]
