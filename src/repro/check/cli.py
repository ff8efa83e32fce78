"""``wrht-repro check`` / ``python -m repro.check`` — static verification CLI.

Two subcommands:

``check``
    Build every golden plan of one figure's grid (the distinct cells of
    its :data:`repro.runner.experiments.FIGURES` record), lower each on
    the chosen backend, and run the full applicable rule catalog. On the
    optical backend the context includes statically re-derived circuit
    rounds, so the wavelength-conflict and port-budget rules run too.
    Exit status 1 on any ERROR finding.

``lint``
    The REP001–REP008 AST pass (same as ``python -m repro.check.lint``).

Golden plans use the figures' real communication geometry with a compact
gradient vector: routing, wavelength assignment and step structure depend
only on the (algorithm, N, w) pattern, not on payload bytes, so the
verification verdict is identical to paper-scale workloads at a fraction
of the cost.

Examples::

    $ wrht-repro check --backend optical --fig fig5
    $ python -m repro.check check --fig fig6 --backend analytic
    $ python -m repro.check lint src
"""

from __future__ import annotations

import argparse
import sys

from repro.check.findings import Finding, errors


def golden_cells(fig: str) -> list[dict]:
    """The distinct (base algorithm, N, w, WRHT m) cells one figure prices
    at the paper defaults, in grid order, read from
    :data:`repro.runner.experiments.FIGURES`. Fig 7's E-Ring and O-Ring
    share one Ring cell: the schedule is the same, only the backend differs.
    """
    from repro.runner.experiments import FIGURES

    if fig not in FIGURES:
        raise ValueError(f"unknown figure {fig!r}; expected fig4..fig7")
    figure = FIGURES[fig]
    cells: list[dict] = []
    for algo in figure.algos.values():
        for x in figure.x_values:
            n, w, wrht_m = figure.cell(x)
            cell = {"algo": algo, "n": n, "w": w, "wrht_m": wrht_m}
            if cell not in cells:
                cells.append(cell)
    return cells


def _verify_cell(cell: dict, backend_name: str, interpretation: str) -> list[Finding]:
    """Build, lower and verify one golden cell; returns its findings."""
    from repro.check.context import optical_context
    from repro.check.engine import run_rules, verify_plan
    from repro.runner.experiments import _build_cell_schedule, get_backend

    class _Elems:
        """Minimal workload stand-in: a compact exact-chunking vector."""

        def __init__(self, n: int) -> None:
            self.n_params = 8 * n
            self.bytes_per_param = 4.0

    backend = get_backend(backend_name, cell["n"], cell["w"], interpretation)
    schedule = _build_cell_schedule(
        cell["algo"], cell["n"], cell["w"], _Elems(cell["n"]), cell["wrht_m"]
    )
    if backend_name == "optical":
        context = optical_context(backend, schedule)
        return run_rules(context)
    plan = backend.lower(schedule, bytes_per_elem=4.0)
    return verify_plan(plan, schedule)


def cmd_check(args: argparse.Namespace) -> int:
    """Verify every golden plan of the selected figure(s)."""
    from repro.runner.experiments import FIGURES

    figs = [args.fig] if args.fig else list(FIGURES)
    n_cells = 0
    bad: list[Finding] = []
    for fig in figs:
        for cell in golden_cells(fig):
            n_cells += 1
            findings = _verify_cell(cell, args.backend, args.interpretation)
            label = f"{fig} {cell['algo']} N={cell['n']} w={cell['w']}"
            cell_errors = errors(findings)
            bad.extend(cell_errors)
            if cell_errors:
                print(f"FAIL {label}")
                for finding in cell_errors:
                    print(f"  {finding.render()}")
            elif args.verbose:
                notes = len(findings) - len(cell_errors)
                suffix = f" ({notes} note(s))" if notes else ""
                print(f"ok   {label}{suffix}")
    status = "clean" if not bad else f"{len(bad)} error finding(s)"
    print(
        f"verified {n_cells} golden plan(s) on the {args.backend} "
        f"backend: {status}"
    )
    return 1 if bad else 0


def cmd_lint(args: argparse.Namespace) -> int:
    """Run the REP lint pass (delegates to :mod:`repro.check.lint`)."""
    from repro.check.lint import main as lint_main

    argv = [str(p) for p in args.paths]
    if args.select:
        argv += ["--select", args.select]
    return lint_main(argv)


def build_parser() -> argparse.ArgumentParser:
    """Construct the ``repro.check`` CLI parser.

    The figure and backend choices are imported here, not at module level,
    so importing :mod:`repro.check` stays light.
    """
    from repro.backend import registry
    from repro.check.lint import existing_path
    from repro.runner.experiments import FIGURES

    parser = argparse.ArgumentParser(
        prog="python -m repro.check",
        description=(
            "Static verification: the PLAN rules over the figures' golden "
            "plans and the REP001-REP008 lint pass."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="verify a figure's golden plans")
    p.add_argument(
        "--backend", choices=registry.available(),
        default="optical", help="backend to lower the golden plans on",
    )
    p.add_argument(
        "--fig", choices=tuple(FIGURES), default=None,
        help="restrict to one figure (default: all of them)",
    )
    p.add_argument(
        "--interpretation", choices=("calibrated", "strict"),
        default="calibrated", help="line-rate units (see DESIGN.md §6)",
    )
    p.add_argument("-v", "--verbose", action="store_true",
                   help="print every verified cell")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("lint", help="run the REP001-REP008 AST lint")
    p.add_argument(
        "paths", nargs="+", type=existing_path,
        help="files or directories to lint",
    )
    p.add_argument("--select", help="comma-separated rule ids")
    p.set_defaults(fn=cmd_lint)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Entry point for ``python -m repro.check`` and the CLI subcommand."""
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
