"""Benchmark-regression gate: compare fresh measurements to baselines.

The committed ``BENCH_rwa.json``/``BENCH_faults.json`` baselines were
write-only artifacts: a perf or correctness regression changed the numbers
the next time someone happened to re-run the benches, and nothing noticed.
This module turns them into an enforced trajectory — ``scripts/bench_gate.py``
re-measures a pinned subset of bench cells and the comparison logic here
decides pass/fail. CI runs the script as its own job.

Two comparison regimes, matched to what each number *is*:

- **Deterministic simulated values** (fault-sweep availability, slowdown,
  degraded seconds, survivor counts, RWA transfer counts) are pure
  functions of the inputs — identical on every machine. They are compared
  with a tight relative tolerance (:data:`DEFAULT_SIM_REL_TOL`); any drift
  means the model's behavior changed.
- **Wall-clock performance floors** (RWA kernel and incremental-repair
  speedups, ``BENCH_repair.json``; planning-service throughput,
  ``BENCH_service.json``) are host-noisy,
  so the gate only enforces a floor: the measured speedup must stay above
  ``baseline_speedup × perf_floor`` (:data:`DEFAULT_PERF_FLOOR`, i.e. a
  4× perf regression fails with the default 0.25). Measurements should be
  best-of-N to tame scheduler noise (the script does best-of-3). The
  service row additionally carries an absolute req/s floor.

A metric present in the current measurement but missing from the baseline
is itself a violation (``missing-baseline``): silently ungated metrics are
how trajectories rot.
"""

from __future__ import annotations

from dataclasses import dataclass, field

DEFAULT_SIM_REL_TOL = 1e-6
DEFAULT_PERF_FLOOR = 0.25


@dataclass(frozen=True)
class GateViolation:
    """One failed comparison.

    Attributes:
        metric: Dotted metric label (``"faults.cut-fiber.optical.availability"``).
        kind: ``"rel"`` (deterministic drift), ``"floor"`` (perf floor
            breached), ``"exact"`` (integer mismatch) or
            ``"missing-baseline"``.
        current: Freshly measured value (``None`` for missing metrics).
        baseline: Committed value (``None`` when absent from the baseline).
        allowed: Human-readable bound that was violated.
    """

    metric: str
    kind: str
    current: float | None
    baseline: float | None
    allowed: str

    def render(self) -> str:
        """One-line human-readable form."""
        return (
            f"[{self.kind}] {self.metric}: current={self.current!r} "
            f"baseline={self.baseline!r} (allowed: {self.allowed})"
        )


@dataclass
class GateReport:
    """Outcome of one gate run: every comparison made, every violation."""

    checked: list[str] = field(default_factory=list)
    violations: list[GateViolation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when no comparison failed."""
        return not self.violations

    def merge(self, other: "GateReport") -> "GateReport":
        """Fold ``other``'s comparisons into this report (returns self)."""
        self.checked.extend(other.checked)
        self.violations.extend(other.violations)
        return self

    def to_dict(self) -> dict:
        """JSON-ready diff record (uploaded as a CI artifact on failure)."""
        return {
            "ok": self.ok,
            "n_checked": len(self.checked),
            "checked": list(self.checked),
            "violations": [
                {
                    "metric": v.metric,
                    "kind": v.kind,
                    "current": v.current,
                    "baseline": v.baseline,
                    "allowed": v.allowed,
                }
                for v in self.violations
            ],
        }

    def render(self) -> str:
        """Multi-line summary (violations first)."""
        lines = [v.render() for v in self.violations]
        lines.append(
            f"bench gate: {len(self.checked)} comparison(s), "
            f"{len(self.violations)} violation(s)"
        )
        return "\n".join(lines)


def _check_rel(
    report: GateReport, metric: str, current: float, baseline: object, rel_tol: float
) -> None:
    """Two-sided relative comparison for deterministic values."""
    report.checked.append(metric)
    if baseline is None:
        report.violations.append(
            GateViolation(metric, "missing-baseline", current, None, "baseline present")
        )
        return
    baseline = float(baseline)
    scale = max(abs(current), abs(baseline))
    if scale == 0.0:
        return
    if abs(current - baseline) > rel_tol * scale:
        report.violations.append(
            GateViolation(
                metric, "rel", current, baseline, f"rel delta <= {rel_tol:g}"
            )
        )


def _check_exact(
    report: GateReport, metric: str, current: float, baseline: object
) -> None:
    """Exact comparison for structural integers."""
    report.checked.append(metric)
    if baseline is None:
        report.violations.append(
            GateViolation(metric, "missing-baseline", current, None, "baseline present")
        )
    elif current != baseline:
        report.violations.append(
            GateViolation(metric, "exact", current, baseline, "exact match")
        )


def _check_floor(
    report: GateReport, metric: str, current: float, baseline: object, floor: float
) -> None:
    """Perf floor: ``current >= baseline * floor``."""
    report.checked.append(metric)
    if baseline is None:
        report.violations.append(
            GateViolation(metric, "missing-baseline", current, None, "baseline present")
        )
        return
    baseline = float(baseline)
    bound = baseline * floor
    if current < bound:
        ratio = current / baseline if baseline else float("inf")
        report.violations.append(
            GateViolation(
                metric, "floor", current, baseline,
                f">= {bound:.3g} ({floor:g} x baseline); "
                f"measured {ratio:.3g} x baseline",
            )
        )


def compare_rwa(
    current_rows: list[dict],
    baseline: dict | None,
    *,
    perf_floor: float = DEFAULT_PERF_FLOOR,
) -> GateReport:
    """Gate re-measured RWA micro rows against a ``BENCH_rwa.json`` dict.

    Per (case, n) row: the transfer count must match exactly (a structural
    change to the step shapes is a regression in its own right) and the
    speedup must stay above the perf floor.
    """
    report = GateReport()
    if baseline is None:
        baseline = {}
    base_rows = {
        (row["case"], row["n"]): row for row in baseline.get("micro", [])
    }
    for row in current_rows:
        key = (row["case"], row["n"])
        label = f"rwa.{row['case']}.n{row['n']}"
        base = base_rows.get(key)
        _check_exact(
            report, f"{label}.transfers", row["transfers"],
            None if base is None else base.get("transfers"),
        )
        _check_floor(
            report, f"{label}.speedup", row["speedup"],
            None if base is None else base.get("speedup"), perf_floor,
        )
    return report


def compare_repair(
    current_rows: list[dict],
    baseline: dict | None,
    *,
    perf_floor: float = DEFAULT_PERF_FLOOR,
) -> GateReport:
    """Gate re-measured repair micro rows against a ``BENCH_repair.json`` dict.

    Per (case, n) row: transfer and fallback counts are structural
    (``fallbacks`` must stay 0 — a benchmark instance that falls back to
    the full recolor is no longer measuring the repair path) and the
    repair-vs-full-recolor speedup must stay above the perf floor.
    """
    report = GateReport()
    if baseline is None:
        baseline = {}
    base_rows = {
        (row["case"], row["n"]): row for row in baseline.get("repair", [])
    }
    for row in current_rows:
        key = (row["case"], row["n"])
        label = f"repair.{row['case']}.n{row['n']}"
        base = base_rows.get(key)
        _check_exact(
            report, f"{label}.transfers", row["transfers"],
            None if base is None else base.get("transfers"),
        )
        _check_exact(report, f"{label}.fallbacks", row["fallbacks"], 0)
        _check_floor(
            report, f"{label}.speedup", row["speedup"],
            None if base is None else base.get("speedup"), perf_floor,
        )
    return report


SERVICE_SHAPE_FIELDS = ("tenants", "requests", "distinct_cells")


def _service_rows(baseline: dict | None) -> dict[str, dict]:
    return {row["case"]: row for row in (baseline or {}).get("service", [])}


def compare_service_shape(
    current_rows: list[dict], baseline: dict | None
) -> GateReport:
    """Gate the structural counts of service rows, exactly.

    ``current_rows`` need only carry ``case`` plus
    :data:`SERVICE_SHAPE_FIELDS`, so the shape can be derived from the
    bench grid without launching the daemon; a changed grid silently
    re-scopes the pinned throughput, so it must be re-pinned on purpose.
    """
    report = GateReport()
    base_rows = _service_rows(baseline)
    for row in current_rows:
        label = f"service.{row['case']}"
        base = base_rows.get(row["case"])
        for field_name in SERVICE_SHAPE_FIELDS:
            _check_exact(
                report, f"{label}.{field_name}", row[field_name],
                None if base is None else base.get(field_name),
            )
    return report


def compare_service(
    current_rows: list[dict],
    baseline: dict | None,
    *,
    perf_floor: float = DEFAULT_PERF_FLOOR,
    min_rps: float = 500.0,
) -> GateReport:
    """Gate re-measured service rows against a ``BENCH_service.json`` dict.

    Per case row: the request/tenant/cell counts are structural (a changed
    workload shape silently re-scopes the number) and throughput is gated
    two ways — relative to the committed baseline via the perf floor, and
    against the absolute ``min_rps`` floor the service is specified to
    sustain on the micro grid regardless of what the baseline drifted to.
    """
    report = compare_service_shape(current_rows, baseline)
    base_rows = _service_rows(baseline)
    for row in current_rows:
        label = f"service.{row['case']}"
        base = base_rows.get(row["case"])
        _check_floor(
            report, f"{label}.rps", row["rps"],
            None if base is None else base.get("rps"), perf_floor,
        )
        _check_floor(report, f"{label}.rps_absolute", row["rps"], min_rps, 1.0)
    return report


def compare_collectives(
    current: dict,
    baseline: dict | None,
    *,
    rel_tol: float = DEFAULT_SIM_REL_TOL,
) -> GateReport:
    """Gate re-measured bake-off rows against a ``BENCH_collectives.json`` dict.

    ``current`` carries the two sections the bench emits: ``curves``
    (algorithm x backend x N x payload completion times) and ``faults``
    (algorithm x canonical fault scenario on the optical substrate). Both
    are deterministic simulated quantities: step and survivor counts are
    structural and gated exactly, times and availability with the tight
    relative tolerance. Fault rows must additionally verify clean
    (``n_errors == 0``) — the same contract as :func:`compare_faults`.
    """
    report = GateReport()
    if baseline is None:
        baseline = {}
    base_curves = {
        (row["algorithm"], row["backend"], row["n_nodes"], row["elems"]): row
        for row in baseline.get("curves", [])
    }
    for row in current.get("curves", []):
        key = (row["algorithm"], row["backend"], row["n_nodes"], row["elems"])
        label = (
            f"collectives.{row['algorithm']}.{row['backend']}"
            f".n{row['n_nodes']}.e{row['elems']}"
        )
        base = base_curves.get(key)
        _check_exact(
            report, f"{label}.n_steps", row["n_steps"],
            None if base is None else base.get("n_steps"),
        )
        _check_rel(
            report, f"{label}.total_time_s", row["total_time_s"],
            None if base is None else base.get("total_time_s"), rel_tol,
        )
    base_faults = {
        (row["algorithm"], row["scenario"]): row
        for row in baseline.get("faults", [])
    }
    for row in current.get("faults", []):
        key = (row["algorithm"], row["scenario"])
        label = f"collectives.{row['algorithm']}.{row['scenario']}"
        base = base_faults.get(key)
        _check_exact(report, f"{label}.n_errors", row["n_errors"], 0)
        _check_exact(
            report, f"{label}.n_survivors", row["n_survivors"],
            None if base is None else base.get("n_survivors"),
        )
        for field_name in ("healthy_s", "degraded_s", "availability"):
            _check_rel(
                report, f"{label}.{field_name}", row[field_name],
                None if base is None else base.get(field_name), rel_tol,
            )
    return report


def compare_reconfig(
    current_rows: list[dict],
    baseline: dict | None,
    *,
    rel_tol: float = DEFAULT_SIM_REL_TOL,
) -> GateReport:
    """Gate re-measured reconfiguration rows against ``BENCH_reconfig.json``.

    Per (algorithm, backend, N, payload) row: the serial/overlapped/chosen
    tuning exposures are deterministic simulated quantities gated at the
    tight relative tolerance; the estimator's ``decision`` label and the
    static-verification error count are structural and gated exactly
    (``n_errors`` must be zero — an overlapped plan that fails PLAN008 is
    a correctness bug, not a perf number). ``hold_s`` is ``None``-aware:
    feasibility of the wavelength-partition plan is itself structural, so
    a ``None``/number flip between baseline and current fails exactly.

    One baseline-independent invariant rides along: at least one optical
    row must show overlap strictly beating serial tuning — a gate run in
    which the overlap machinery silently stopped overlapping should fail
    even if someone regenerates the baseline around it.
    """
    report = GateReport()
    if baseline is None:
        baseline = {}
    base_rows = {
        (row["algorithm"], row["backend"], row["n_nodes"], row["elems"]): row
        for row in baseline.get("reconfig", [])
    }
    for row in current_rows:
        key = (row["algorithm"], row["backend"], row["n_nodes"], row["elems"])
        label = (
            f"reconfig.{row['algorithm']}.{row['backend']}"
            f".n{row['n_nodes']}.e{row['elems']}"
        )
        base = base_rows.get(key)
        _check_exact(report, f"{label}.n_errors", row["n_errors"], 0)
        _check_exact(
            report, f"{label}.decision", row["decision"],
            None if base is None else base.get("decision"),
        )
        for field_name in ("no_overlap_s", "overlap_s", "chosen_s"):
            _check_rel(
                report, f"{label}.{field_name}", row[field_name],
                None if base is None else base.get(field_name), rel_tol,
            )
        hold = row["hold_s"]
        base_hold = None if base is None else base.get("hold_s")
        metric = f"{label}.hold_s"
        if base is None:
            report.checked.append(metric)
            report.violations.append(
                GateViolation(
                    metric, "missing-baseline", hold, None, "baseline present"
                )
            )
        elif hold is None or base_hold is None:
            # ``None`` means the wavelength-partition plan was infeasible
            # (or the backend has no hold path at all) — a feasibility
            # flip in either direction is a structural change.
            report.checked.append(metric)
            if hold is not None or base_hold is not None:
                report.violations.append(
                    GateViolation(
                        metric, "exact", hold, base_hold,
                        "hold feasibility (None-ness) must match",
                    )
                )
        else:
            _check_rel(report, metric, hold, base_hold, rel_tol)
    report.checked.append("reconfig.overlap_wins")
    optical = [r for r in current_rows if r["backend"] == "optical"]
    if optical and not any(
        r["overlap_s"] < r["no_overlap_s"] for r in optical
    ):
        report.violations.append(
            GateViolation(
                "reconfig.overlap_wins", "floor", 0, 1,
                "at least one optical cell with overlap_s < no_overlap_s",
            )
        )
    return report


#: Deterministic per-cell fields of a fault-sweep row, gated with the tight
#: relative tolerance (``n_survivors``/``n_errors`` are gated exactly).
_FAULT_REL_FIELDS = ("healthy_s", "degraded_s", "slowdown_pct", "availability")


def compare_faults(
    current_rows: list[dict],
    baseline: dict | None,
    *,
    rel_tol: float = DEFAULT_SIM_REL_TOL,
) -> GateReport:
    """Gate re-measured fault-sweep rows against a ``BENCH_faults.json`` dict.

    Every field here is a deterministic simulated quantity; any drift past
    ``rel_tol`` is a behavior change in the degraded-mode pipeline, not
    noise. ``n_errors`` must additionally be zero — an availability number
    whose plan failed static verification is worthless.
    """
    report = GateReport()
    if baseline is None:
        baseline = {}
    base_rows = {
        (row["scenario"], row["backend"]): row
        for row in baseline.get("scenarios", [])
    }
    for row in current_rows:
        key = (row["scenario"], row["backend"])
        label = f"faults.{row['scenario']}.{row['backend']}"
        base = base_rows.get(key)
        _check_exact(report, f"{label}.n_errors", row["n_errors"], 0)
        _check_exact(
            report, f"{label}.n_survivors", row["n_survivors"],
            None if base is None else base.get("n_survivors"),
        )
        for field_name in _FAULT_REL_FIELDS:
            _check_rel(
                report, f"{label}.{field_name}", row[field_name],
                None if base is None else base.get(field_name), rel_tol,
            )
    return report
