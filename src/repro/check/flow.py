"""Call-graph-aware determinism rules (DET001–DET004).

Plans are cached, shared across sweep workers and replayed, so a plan's
identity and structure must be pure functions of the simulated
configuration. The hazards that break that — a wall-clock read or a
process-local ``id``/``hash`` landing in a cache key, set order or an
unseeded RNG steering the lowering — are *path* properties: a
``time.perf_counter`` read is harmless until some chain of returns lands
it in a cache key. The REP lint cannot see that; these rules walk the
:mod:`repro.check.callgraph` graph and the :mod:`repro.check.effects`
lattices instead.

========  =============================================================
DET001    A wall-clock value (``time.time``/``perf_counter``/
          ``datetime.now`` — possibly returned through any chain of
          helpers) flows into a plan/cache identity: a ``LoweredPlan``
          construction, a plan-cache ``.put`` key, the fingerprint/
          digest/salt helpers, or a ``*key*``-named function's return.
DET002    Iteration over a ``set``/``frozenset`` inside code reachable
          from a lowering entry point (``lower``/``plan_step_rounds``):
          set order varies with PYTHONHASHSEED, so anything it feeds —
          plan structure, RWA coloring order — silently loses
          bit-reproducibility. Iterate ``sorted(...)`` instead.
DET003    An unseeded RNG (interprocedurally) reachable from ``lower``:
          the REP001 contract upgraded from lexical to call-graph
          reachability.
DET004    ``id(...)``/``hash(...)`` flowing into a key identity:
          ``id`` is an address, ``hash`` of a str is salted per process
          — neither survives a process boundary or a replay.
========  =============================================================

Every rule honours the shared ``# <RULEID>: <reason>`` pragma
(:func:`repro.check.lint.pragma_suppresses`) on the offending line or the
comment block above it. Run via ``python -m repro.check flow src``
(``--sarif`` emits a SARIF 2.1.0 report for CI annotation).
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterator

from repro.check.callgraph import (
    CallGraph,
    FunctionInfo,
    build_callgraph,
    load_files,
)
from repro.check.effects import (
    RNG,
    WALLCLOCK_EXTERNALS,
    WALLCLOCK_TERMINALS,
    EffectReport,
    _expr_tainted,
    _is_key_named,
    _sink_args_of_call,
    _site_map,
    key_sink_params,
    propagate_effects,
    tainted_locals_of,
    tainted_returners,
)
from repro.check.findings import Finding, Severity
from repro.check.lint import pragma_suppresses

FLOW_RULES: dict[str, str] = {
    "DET001": "wall-clock value flows into a plan/cache identity",
    "DET002": "set iteration on a lowering path",
    "DET003": "unseeded RNG reachable from a lowering entry point",
    "DET004": "id()/hash() flows into a cross-process identity",
}
"""Rule id -> short title (CLI ``--list-rules``, SARIF rule metadata)."""

#: Entry points whose down-closure is "the lowering path" (DET002/DET003).
LOWERING_ENTRY_NAMES = frozenset({"lower", "plan_step_rounds"})

#: Sources for the DET004 taint (bare-name builtins only).
_IDENTITY_SOURCES = frozenset({"id", "hash"})


def _finding(rule_id: str, message: str, path: str, lineno: int, **details) -> Finding:
    return Finding(
        rule_id=rule_id,
        severity=Severity.ERROR,
        message=message,
        location=f"{path}:{lineno}",
        details={"line": lineno, **details},
    )


def _fmt_chain(chain: list[str]) -> str:
    return " -> ".join(part.split(":", 1)[-1] for part in chain)


# -- DET001 / DET004 ----------------------------------------------------


def _own_nodes(root: ast.AST) -> Iterator[ast.AST]:
    """Walk ``root``'s body without descending into nested function defs."""
    stack: list[ast.AST] = list(ast.iter_child_nodes(root))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            stack.extend(ast.iter_child_nodes(node))


def _check_taint_to_keys(
    graph: CallGraph,
    rule_id: str,
    sources: frozenset[str],
    source_terminals: frozenset[str],
    what: str,
) -> Iterator[Finding]:
    returners = tainted_returners(graph, sources, source_terminals)
    sinks = key_sink_params(graph)
    for fn in graph.functions.values():
        site_map = _site_map(graph, fn.qualname)
        locals_ = tainted_locals_of(
            graph, fn.qualname, sources, source_terminals, returners
        )

        def tainted(expr: ast.expr) -> bool:
            return _expr_tainted(
                expr, site_map, sources, source_terminals, returners, locals_
            )

        for site in graph.sites(fn.qualname):
            for arg in _sink_args_of_call(site, sinks, graph):
                if tainted(arg):
                    yield _finding(
                        rule_id,
                        f"{what} flows into the plan/cache identity built "
                        f"by {site.terminal}() (argument "
                        f"{ast.unparse(arg)!r}); identities must depend "
                        "only on the simulated configuration or they break "
                        "replay and cross-process sharing",
                        site.path, site.lineno,
                        function=fn.qualname,
                    )
        if _is_key_named(fn.name):
            for node in _own_nodes(fn.node):
                if (
                    isinstance(node, ast.Return)
                    and node.value is not None
                    and tainted(node.value)
                ):
                    yield _finding(
                        rule_id,
                        f"{what} reaches the value returned by the "
                        f"key-building function {fn.name}()",
                        fn.path, node.lineno,
                        function=fn.qualname,
                    )


# -- DET002 / DET003 ----------------------------------------------------


def _lowering_closure(graph: CallGraph) -> set[str]:
    """Every function reachable from a lowering entry point."""
    roots = [
        q for q, fn in graph.functions.items()
        if fn.name in LOWERING_ENTRY_NAMES
    ]
    closure: set[str] = set()
    stack = list(roots)
    while stack:
        current = stack.pop()
        if current in closure:
            continue
        closure.add(current)
        stack.extend(graph.callees(current))
    return closure


def _setish_vars(fn: FunctionInfo) -> set[str]:
    setish: set[str] = set()
    for _ in range(2):
        before = len(setish)
        for node in ast.walk(fn.node):
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target = node.targets[0]
                if isinstance(target, ast.Name) and _is_setish(
                    node.value, setish
                ):
                    setish.add(target.id)
        if len(setish) == before:
            break
    return setish


def _is_setish(node: ast.expr, setish_vars: set[str]) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Name):
        return node.id in setish_vars
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in ("set", "frozenset")
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
        if node.func.attr in (
            "union", "intersection", "difference", "symmetric_difference"
        ):
            return _is_setish(node.func.value, setish_vars)
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.BitOr, ast.BitAnd, ast.Sub)
    ):
        return _is_setish(node.left, setish_vars) or _is_setish(
            node.right, setish_vars
        )
    return False


def _check_det002(graph: CallGraph) -> Iterator[Finding]:
    closure = _lowering_closure(graph)
    for qual in sorted(closure):
        fn = graph.functions.get(qual)
        if fn is None:
            continue
        setish = _setish_vars(fn)
        iters: list[ast.expr] = []
        for node in ast.walk(fn.node):
            if isinstance(node, (ast.For, ast.AsyncFor)):
                iters.append(node.iter)
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)):
                iters.extend(gen.iter for gen in node.generators)
        for expr in iters:
            if _is_setish(expr, setish):
                yield _finding(
                    "DET002",
                    f"iteration over a set ({ast.unparse(expr)!r}) inside "
                    f"{fn.name}(), which is on the lowering path: set order "
                    "varies with PYTHONHASHSEED, so downstream plan/RWA "
                    "state loses bit-reproducibility — iterate "
                    "sorted(...) instead",
                    fn.path, expr.lineno,
                    function=fn.qualname,
                )


def _check_det003(graph: CallGraph, report: EffectReport) -> Iterator[Finding]:
    for qual, fn in graph.functions.items():
        if fn.name not in LOWERING_ENTRY_NAMES:
            continue
        if report.has(qual, RNG):
            chain = report.chain(qual, RNG)
            yield _finding(
                "DET003",
                f"an unseeded RNG is reachable from {fn.name}() "
                f"({_fmt_chain(chain)}); lowering must be a pure function "
                "of the configuration — plumb a seeded generator through "
                "(interprocedural REP001)",
                fn.path, fn.lineno,
                function=qual, chain=_fmt_chain(chain),
            )


# -- driver -------------------------------------------------------------


def analyze_files(
    files: list[tuple[str, str]], select: set[str] | None = None
) -> list[Finding]:
    """Run the flow rules over ``(path, source)`` pairs.

    Returns findings sorted by (path, line, rule id), with reasoned
    ``# <RULEID>: <reason>`` pragmas already applied. Unparseable files
    contribute a ``SYNTAX`` finding each.
    """
    graph, findings = build_callgraph(files)
    report = propagate_effects(graph)
    checks: dict[str, Iterator[Finding]] = {
        "DET001": _check_taint_to_keys(
            graph, "DET001", WALLCLOCK_EXTERNALS, WALLCLOCK_TERMINALS,
            "a wall-clock value",
        ),
        "DET002": _check_det002(graph),
        "DET003": _check_det003(graph, report),
        "DET004": _check_taint_to_keys(
            graph, "DET004", _IDENTITY_SOURCES, frozenset(),
            "an id()/hash() process-local identity",
        ),
    }
    for rule_id, produced in checks.items():
        if select is not None and rule_id not in select:
            continue
        findings.extend(produced)
    lines_by_path = {path: source.splitlines() for path, source in files}
    kept = [
        f
        for f in findings
        if not pragma_suppresses(
            f.rule_id,
            lines_by_path.get((f.location or ":").rsplit(":", 1)[0], []),
            f.details.get("line", 0),
        )
    ]
    kept.sort(key=lambda f: (f.location or "", f.details.get("line", 0), f.rule_id))
    return kept


def analyze_paths(
    paths: list[str | Path], select: set[str] | None = None
) -> list[Finding]:
    """Run the flow rules over files and directories (recursively)."""
    return analyze_files(load_files(paths), select=select)
