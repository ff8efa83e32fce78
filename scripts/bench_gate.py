#!/usr/bin/env python
"""Benchmark-regression gate: re-measure pinned bench cells, compare, exit.

Re-runs a pinned subset of the committed benchmarks and gates the fresh
numbers against the committed baselines via :mod:`repro.obs.benchgate`:

- **RWA kernel micro cells** (``BENCH_rwa.json``): the dense-alltoall and
  wrht-heaviest cases at N=64 and N=256 — every shape from the committed
  ``micro`` table except the ~20 s N=1024 dense case, which is too slow
  for a per-push gate. Transfer counts are gated exactly; speedups are
  best-of-3 and gated against a perf *floor* (default 0.25 x baseline,
  i.e. only a 4x regression fails — wall clock is host-noisy).
- **Fault-sweep scenarios** (``BENCH_faults.json``): the full canonical
  scenario x backend grid. These are deterministic simulated quantities,
  gated with a tight relative tolerance (default 1e-6) plus exact
  survivor counts and a zero static-verification-error requirement.
- **Incremental-repair micro cells** (``BENCH_repair.json``): single-fault
  repair vs full recolor at N in {64, 256, 1024}. Transfer and fallback
  counts are gated exactly (fallbacks must be 0); the repair speedup is
  best-of-N wall clock, gated against the same perf floor.
- **Collectives bake-off** (``BENCH_collectives.json``): the rival
  algorithm lineup (Ring/BT/RD/Swing/SCRing/WRHT) over the completion
  -time curve grid and the canonical fault scenarios. All deterministic:
  step/survivor counts exact, times and availability at the tight
  relative tolerance, zero verification errors required.
- **Reconfiguration-overlap grid** (``BENCH_reconfig.json``): serial vs
  overlapped MRR tuning exposure and the reconfigure-vs-hold decision per
  (algorithm, backend, N, payload) cell, all deterministic: times at the
  tight relative tolerance, decisions and verification-error counts
  exact, plus the baseline-independent requirement that overlap strictly
  beats serial tuning on at least one optical cell.

Exit status: 0 when every comparison passes, 1 on any regression, 2 when
a baseline file is missing or unreadable. ``--json`` writes the full diff
record (uploaded as a CI artifact on failure); ``--skip-perf`` drops the
wall-clock RWA/repair measurements for a fast deterministic-only run.
``--update-baseline`` rewrites the measured cells back into the pinned
baseline JSONs (leaving unmeasured cells untouched) instead of gating —
for intentional perf/behavior changes; review the resulting diff.
``--summary PATH`` appends a markdown gate summary to PATH (pointed at
``$GITHUB_STEP_SUMMARY`` in CI so every run reports its comparisons).

Usage::

    python scripts/bench_gate.py [--json diff.json] [--skip-perf]
    python scripts/bench_gate.py --update-baseline
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
for entry in (str(REPO_ROOT), str(REPO_ROOT / "src")):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from repro.obs.benchgate import (  # noqa: E402
    DEFAULT_PERF_FLOOR,
    DEFAULT_SIM_REL_TOL,
    GateReport,
    compare_collectives,
    compare_faults,
    compare_reconfig,
    compare_repair,
    compare_rwa,
)

#: Pinned RWA micro cells: (case label, N, dense representative count or
#: None for the wrht-heaviest shape). The N=1024 dense case is excluded —
#: its seed-kernel measurement alone takes ~20 s.
PINNED_RWA_CELLS = (
    ("dense-alltoall", 64, 16),
    ("dense-alltoall", 256, 32),
    ("wrht-heaviest", 64, None),
    ("wrht-heaviest", 256, None),
)

BEST_OF = 3


def measure_rwa(best_of: int = BEST_OF) -> list[dict]:
    """Fresh measurements for the pinned RWA cells (best-of-``best_of``)."""
    from benchmarks.bench_rwa import (
        _dense_routes,
        _time_kernels,
        _wrht_heaviest_routes,
    )

    rows = []
    for case, n, k in PINNED_RWA_CELLS:
        if k is not None:
            n_seg, routes = _dense_routes(n, k)
        else:
            n_seg, routes = _wrht_heaviest_routes(n)
        best = None
        for _ in range(best_of):
            seed_s, fast_s = _time_kernels(n_seg, routes)
            speedup = seed_s / fast_s
            if best is None or speedup > best["speedup"]:
                best = {"seed_s": seed_s, "bitmask_s": fast_s, "speedup": speedup}
        rows.append(
            {"case": case, "n": n, "transfers": len(routes), **best}
        )
    return rows


def measure_faults() -> list[dict]:
    """Fresh fault-sweep rows, same shape as ``BENCH_faults.json``."""
    from benchmarks.bench_faults import _run_availability

    return _run_availability()


def measure_repair() -> list[dict]:
    """Fresh repair micro rows, same shape as ``BENCH_repair.json``.

    All three cells are cheap (the slowest side is one ~5 ms full recolor
    at N=1024), so unlike the RWA table nothing is excluded from the gate.
    """
    from benchmarks.bench_repair import _run_repair_micro

    return _run_repair_micro()


def measure_reconfig() -> list[dict]:
    """Fresh reconfiguration rows, same shape as ``BENCH_reconfig.json``.

    The whole pinned grid (N=8, three backends) re-measures in well under
    a second, so nothing is excluded from the gate. The scheduled
    full-grid lane sets ``WRHT_BENCH_FULL=1`` for the larger N=16 cells.
    """
    from benchmarks.bench_reconfig import _run_reconfig

    return _run_reconfig()


def measure_collectives() -> dict:
    """Fresh bake-off sections, same shape as ``BENCH_collectives.json``.

    The whole grid (both sections) is deterministic and re-measures in a
    few seconds — the simulated backends are capped at N=64 and the
    analytic N=1024 cells skip materialization — so unlike the RWA table
    nothing is excluded from the gate.
    """
    from benchmarks.bench_collectives import _run_curves, _run_fault_grid

    return {"curves": _run_curves(), "faults": _run_fault_grid()}


def load_baseline(path: Path) -> dict | None:
    """Parsed baseline JSON, or ``None`` when missing/unreadable."""
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError):
        return None


def update_baseline(
    path: Path, section: str, rows: list[dict], key_fields: tuple[str, ...]
) -> None:
    """Splice freshly measured ``rows`` into ``path``'s ``section`` list.

    Rows are matched by ``key_fields``; measured cells are replaced in
    place, unmeasured cells (e.g. the N=1024 dense RWA case the gate never
    re-runs) keep their committed values, and genuinely new cells append.
    """
    baseline = load_baseline(path) or {}
    existing = list(baseline.get(section, []))
    fresh = {tuple(row[k] for k in key_fields): row for row in rows}
    merged = []
    for row in existing:
        key = tuple(row.get(k) for k in key_fields)
        merged.append(fresh.pop(key, row))
    merged.extend(fresh.values())
    baseline[section] = merged
    path.write_text(json.dumps(baseline, indent=2) + "\n")
    print(f"updated {len(rows)} {section} row(s) in {path}")


def write_summary(path: Path, report: GateReport) -> None:
    """Append a markdown summary of ``report`` to ``path``.

    CI points this at ``$GITHUB_STEP_SUMMARY`` so every bench-gate run —
    pass or fail — shows its comparison counts (and any violations) on
    the workflow summary page.
    """
    lines = [
        "## Bench gate",
        "",
        f"**{'PASS' if report.ok else 'FAIL'}** — "
        f"{len(report.checked)} comparison(s), "
        f"{len(report.violations)} violation(s)",
        "",
    ]
    if report.violations:
        lines += [
            "| metric | kind | current | baseline | allowed |",
            "| --- | --- | --- | --- | --- |",
        ]
        lines += [
            f"| `{v.metric}` | {v.kind} | {v.current!r} | {v.baseline!r} "
            f"| {v.allowed} |"
            for v in report.violations
        ]
        lines.append("")
    with path.open("a") as handle:
        handle.write("\n".join(lines) + "\n")
    print(f"appended gate summary to {path}")


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns the process exit status (0/1/2)."""
    parser = argparse.ArgumentParser(
        prog="scripts/bench_gate.py",
        description="re-measure pinned bench cells and gate them against "
        "the committed BENCH_rwa.json / BENCH_faults.json / "
        "BENCH_repair.json baselines",
    )
    parser.add_argument(
        "--json", metavar="PATH", default=None,
        help="write the full diff record to PATH (CI failure artifact)",
    )
    parser.add_argument(
        "--perf-floor", type=float, default=DEFAULT_PERF_FLOOR,
        help="speedup must stay above baseline x FLOOR (default %(default)s)",
    )
    parser.add_argument(
        "--sim-rel-tol", type=float, default=DEFAULT_SIM_REL_TOL,
        help="relative tolerance for deterministic simulated values "
        "(default %(default)s)",
    )
    parser.add_argument(
        "--skip-perf", action="store_true",
        help="skip the wall-clock RWA/repair measurements "
        "(deterministic-only)",
    )
    parser.add_argument(
        "--update-baseline", action="store_true",
        help="rewrite the measured cells back into the pinned baseline "
        "JSONs instead of gating (for intentional changes)",
    )
    parser.add_argument(
        "--baseline-rwa", type=Path, default=REPO_ROOT / "BENCH_rwa.json",
        help="override the RWA baseline path (tests)",
    )
    parser.add_argument(
        "--baseline-faults", type=Path,
        default=REPO_ROOT / "BENCH_faults.json",
        help="override the faults baseline path (tests)",
    )
    parser.add_argument(
        "--baseline-repair", type=Path,
        default=REPO_ROOT / "BENCH_repair.json",
        help="override the repair baseline path (tests)",
    )
    parser.add_argument(
        "--baseline-collectives", type=Path,
        default=REPO_ROOT / "BENCH_collectives.json",
        help="override the collectives bake-off baseline path (tests)",
    )
    parser.add_argument(
        "--baseline-reconfig", type=Path,
        default=REPO_ROOT / "BENCH_reconfig.json",
        help="override the reconfiguration-overlap baseline path (tests)",
    )
    parser.add_argument(
        "--summary", metavar="PATH", default=None,
        help="append a markdown gate summary to PATH "
        "(CI points this at $GITHUB_STEP_SUMMARY)",
    )
    args = parser.parse_args(argv)

    perf_baselines = (
        [] if args.skip_perf else [args.baseline_rwa, args.baseline_repair]
    )
    missing = [
        path
        for path in perf_baselines
        + [args.baseline_faults, args.baseline_collectives,
           args.baseline_reconfig]
        if load_baseline(path) is None
    ]
    if missing and not args.update_baseline:
        for path in missing:
            print(f"bench gate: missing or unreadable baseline: {path}",
                  file=sys.stderr)
        return 2

    report = GateReport()
    if not args.skip_perf:
        print(f"measuring pinned RWA cells (best of {BEST_OF}) ...")
        rwa_rows = measure_rwa()
        for row in rwa_rows:
            print(
                f"  rwa.{row['case']}.n{row['n']}: "
                f"transfers={row['transfers']} speedup={row['speedup']:.1f}x"
            )
        print("measuring incremental-repair cells ...")
        repair_rows = measure_repair()
        for row in repair_rows:
            print(
                f"  repair.{row['case']}.n{row['n']}: "
                f"transfers={row['transfers']} speedup={row['speedup']:.1f}x"
            )
        if args.update_baseline:
            update_baseline(args.baseline_rwa, "micro", rwa_rows, ("case", "n"))
            update_baseline(
                args.baseline_repair, "repair", repair_rows, ("case", "n")
            )
        else:
            report.merge(
                compare_rwa(
                    rwa_rows, load_baseline(args.baseline_rwa),
                    perf_floor=args.perf_floor,
                )
            )
            report.merge(
                compare_repair(
                    repair_rows, load_baseline(args.baseline_repair),
                    perf_floor=args.perf_floor,
                )
            )
    print("measuring fault-sweep scenarios ...")
    fault_rows = measure_faults()
    print("measuring collectives bake-off grids ...")
    collectives = measure_collectives()
    print("measuring reconfiguration-overlap grid ...")
    reconfig_rows = measure_reconfig()
    if args.update_baseline:
        update_baseline(
            args.baseline_faults, "scenarios", fault_rows,
            ("scenario", "backend"),
        )
        update_baseline(
            args.baseline_collectives, "curves", collectives["curves"],
            ("algorithm", "backend", "n_nodes", "elems"),
        )
        update_baseline(
            args.baseline_collectives, "faults", collectives["faults"],
            ("algorithm", "scenario"),
        )
        update_baseline(
            args.baseline_reconfig, "reconfig", reconfig_rows,
            ("algorithm", "backend", "n_nodes", "elems"),
        )
        return 0
    report.merge(
        compare_faults(
            fault_rows, load_baseline(args.baseline_faults),
            rel_tol=args.sim_rel_tol,
        )
    )
    report.merge(
        compare_collectives(
            collectives, load_baseline(args.baseline_collectives),
            rel_tol=args.sim_rel_tol,
        )
    )
    report.merge(
        compare_reconfig(
            reconfig_rows, load_baseline(args.baseline_reconfig),
            rel_tol=args.sim_rel_tol,
        )
    )

    print(report.render())
    if args.json:
        out = Path(args.json)
        out.write_text(json.dumps(report.to_dict(), indent=2) + "\n")
        print(f"wrote diff record to {out}")
    if args.summary:
        write_summary(Path(args.summary), report)
    return 0 if report.ok else 1


if __name__ == "__main__":
    sys.exit(main())
