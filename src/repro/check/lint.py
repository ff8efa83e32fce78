"""Reproduction-specific AST lint (REP001–REP008). Stdlib ``ast`` only.

General-purpose linters cannot know that this repo's determinism contract
forbids unseeded RNGs, that timing quantities are floats that must never be
compared with ``==``, or that sweep workers pickle exceptions across process
boundaries. This pass encodes exactly those house rules:

=======  ==============================================================
REP001   Unseeded RNG construction (``default_rng()`` / ``Random()``
         with no seed, or the ``random`` module's global functions).
         Sweeps replay cached plans; hidden RNG state breaks replay.
REP002   ``==`` / ``!=`` where an operand is named like a timing
         quantity (``duration``, ``*_s``, ``clock`` ...). Float timing
         must be compared with tolerances or avoided.
REP003   Exception class with a custom ``__init__`` but no
         ``__reduce__``/``__getstate__``/``__setstate__``. Such
         exceptions may not survive the pickling round-trip through
         sweep workers (multi-arg ``__init__`` breaks the default
         reduce protocol).
REP005   ``tracer.emit(time, "name", ...)`` with a literal category
         absent from :data:`repro.sim.trace.TRACE_EVENTS`. Tests filter
         traces by these names; a typo silently records nothing.
REP006   Statement-level ``for`` loop over ``step.transfers`` in an
         executor hot path (the pricing modules). Per-transfer Python
         accumulation is the pattern the vectorized executors replaced;
         inherently sequential loops (per-pair routing) are allowlisted
         with a ``# REP006: <reason>`` pragma on the loop line or the
         comment block directly above it.
REP007   Direct plan-cache mutation (``.put``/``.clear``/``.resize`` on
         a plan-cache object) outside the cache layer itself and the
         lowering seams. Only the seams compose full keys (config
         fingerprint, payload width, delta salt), which is what makes
         replay bit-identical; escape hatch: ``# REP007: <reason>``
         pragma.
REP008   Suppression pragma without a reason (``# REP006`` bare, or
         ``# REP006:`` with nothing after the colon). A pragma is an
         audit record; a bare one suppresses nothing and is flagged.
=======  ==============================================================

REP004 (import of the late ``repro.optical.plancache`` alias) is retired:
the alias was removed in PR 7 and the id is never reused.

**Pragmas.** Every rule in this file honours one uniform escape hatch: a
``# <RULEID>: <reason>`` comment on the offending line or in the comment
block directly above it suppresses that rule's finding there. Only ``REP``
ids form pragmas. The reason is mandatory (see REP008);
:func:`pragma_suppresses` is the single implementation.

Files that fail to parse are reported as a structured ``SYNTAX`` finding
(file, line, message) instead of raising, so one broken file cannot mask
the findings of every other file in the batch.

Run as a module over one or more files/directories::

    $ python -m repro.check.lint src

Exit status is 1 when any finding is produced, 0 when clean.
"""

from __future__ import annotations

import argparse
import ast
import re
import sys
from pathlib import Path
from typing import Callable, Iterator

from repro.check.findings import Finding, Severity

#: Functions on the ``random`` module that mutate hidden global state.
_GLOBAL_RANDOM_FNS = frozenset(
    {
        "betavariate", "choice", "choices", "expovariate", "gauss",
        "getrandbits", "lognormvariate", "normalvariate", "paretovariate",
        "randbytes", "randint", "random", "randrange", "sample", "seed",
        "shuffle", "triangular", "uniform", "vonmisesvariate",
        "weibullvariate",
    }
)

#: Identifier shapes that denote timing quantities (REP002).
_TIMING_NAME = re.compile(
    r"(^|_)(time|duration|clock|latency|elapsed|deadline|now)($|_)|_s$"
)

#: Method names whose presence makes a custom-``__init__`` exception safe
#: to pickle (REP003).
_PICKLE_HOOKS = frozenset({"__reduce__", "__getstate__", "__setstate__"})

LINT_RULES: dict[str, str] = {
    "REP001": "unseeded RNG construction",
    "REP002": "float equality on a timing quantity",
    "REP003": "exception with custom __init__ but no pickle hook",
    "REP005": "trace category not registered in TRACE_EVENTS",
    "REP006": "per-transfer Python loop in an executor hot path",
    "REP007": "direct plan-cache mutation outside the cache/lowering seams",
    "REP008": "suppression pragma without a reason",
}
"""Rule id -> short title, for ``--list-rules`` and the docs."""

#: Rule id reserved for unparseable files (always reported, never
#: ``--select``-able away: no other rule can run on such a file).
SYNTAX_RULE = "SYNTAX"

#: One suppression pragma: ``# <REPID>: <reason>`` at the end of a line.
#: The id must be the whole comment tail (prose like "# REP006 is retired"
#: does not match) and the reason group is ``None`` for bare pragmas.
_PRAGMA = re.compile(r"#\s*(REP\d{3})\s*(?::\s*(\S.*?))?\s*$")


def pragma_at(line: str) -> tuple[str, str | None] | None:
    """The ``(rule_id, reason)`` of a ``REP`` pragma comment on ``line``.

    ``None`` when the line carries no pragma; ``(id, None)`` for a bare
    pragma (flagged by REP008, suppresses nothing).
    """
    match = _PRAGMA.search(line)
    if match is None:
        return None
    return match.group(1), match.group(2)


def pragma_suppresses(rule_id: str, lines: list[str], lineno: int) -> bool:
    """Whether a reasoned ``# <rule_id>: <reason>`` pragma covers ``lineno``.

    The single escape-hatch implementation shared by every REP lint rule:
    the pragma may sit on the offending line itself or anywhere in the
    comment block directly above it, and must carry a non-empty reason
    (bare pragmas are rejected — see REP008).
    """
    index = lineno - 1
    if 0 <= index < len(lines):
        found = pragma_at(lines[index])
        if found is not None and found[0] == rule_id and found[1]:
            return True
    index -= 1
    while index >= 0 and lines[index].lstrip().startswith("#"):
        found = pragma_at(lines[index])
        if found is not None and found[0] == rule_id and found[1]:
            return True
        index -= 1
    return False


def syntax_finding(exc: SyntaxError, path: str) -> Finding:
    """The structured ``SYNTAX`` finding for an unparseable file."""
    lineno = exc.lineno or 0
    return Finding(
        rule_id=SYNTAX_RULE,
        severity=Severity.ERROR,
        message=f"file does not parse: {exc.msg}",
        location=f"{path}:{lineno}",
        details={"line": lineno},
    )

#: Executor pricing modules where per-transfer statement loops are hot
#: (REP006). Matched as path suffixes so the rule follows the files, not
#: the checkout location.
_HOT_PATH_SUFFIXES = (
    "repro/optical/network.py",
    "repro/optical/livesim.py",
    "repro/electrical/network.py",
)


def _terminal_name(node: ast.expr) -> str | None:
    """The rightmost identifier of a name/attribute/call/subscript chain."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Call):
        return _terminal_name(node.func)
    if isinstance(node, ast.Subscript):
        return _terminal_name(node.value)
    return None


def _finding(
    rule_id: str, message: str, path: str, node: ast.AST
) -> Finding:
    lineno = getattr(node, "lineno", 0)
    return Finding(
        rule_id=rule_id,
        severity=Severity.ERROR,
        message=message,
        location=f"{path}:{lineno}",
        details={"line": lineno},
    )


def _check_rep001(tree: ast.AST, path: str) -> Iterator[Finding]:
    """REP001 — unseeded RNG construction."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        name = _terminal_name(node.func)
        if name in ("default_rng", "Random") and not node.args and not node.keywords:
            yield _finding(
                "REP001",
                f"{name}() constructed without a seed; sweeps replay cached "
                "plans and hidden RNG state breaks replay",
                path, node,
            )
        elif (
            isinstance(node.func, ast.Attribute)
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "random"
            and node.func.attr in _GLOBAL_RANDOM_FNS
        ):
            yield _finding(
                "REP001",
                f"random.{node.func.attr}() uses the interpreter-global RNG; "
                "construct a seeded Random/Generator instead",
                path, node,
            )


def _check_rep002(tree: ast.AST, path: str) -> Iterator[Finding]:
    """REP002 — ``==``/``!=`` on timing-named operands."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Compare):
            continue
        operands = [node.left, *node.comparators]
        ops = node.ops
        for op, left, right in zip(ops, operands, operands[1:]):
            if not isinstance(op, (ast.Eq, ast.NotEq)):
                continue
            # Comparisons against 0/None are identity-style guards, not
            # float-equality hazards.
            if any(
                isinstance(side, ast.Constant) and side.value in (None, 0)
                for side in (left, right)
            ):
                continue
            for side in (left, right):
                name = _terminal_name(side)
                if name is not None and _TIMING_NAME.search(name):
                    yield _finding(
                        "REP002",
                        f"float equality on timing quantity {name!r}; compare "
                        "with a tolerance (math.isclose) or restructure",
                        path, node,
                    )
                    break


def _looks_like_exception(class_def: ast.ClassDef) -> bool:
    for base in class_def.bases:
        name = _terminal_name(base)
        if name and (
            name.endswith("Error") or name.endswith("Exception")
            or name in ("BaseException", "Warning")
        ):
            return True
    return False


def _check_rep003(tree: ast.AST, path: str) -> Iterator[Finding]:
    """REP003 — custom-``__init__`` exceptions without a pickle hook."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef) or not _looks_like_exception(node):
            continue
        methods = {
            item.name
            for item in node.body
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        if "__init__" in methods and not (methods & _PICKLE_HOOKS):
            yield _finding(
                "REP003",
                f"exception {node.name} defines __init__ but no "
                "__reduce__/__getstate__/__setstate__; it may not survive "
                "pickling through sweep workers",
                path, node,
            )


def _check_rep005(tree: ast.AST, path: str) -> Iterator[Finding]:
    """REP005 — unregistered literal trace categories."""
    from difflib import get_close_matches

    from repro.sim.trace import TRACE_EVENTS

    for node in ast.walk(tree):
        if not (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "emit"
            and len(node.args) >= 2
        ):
            continue
        category = node.args[1]
        if (
            isinstance(category, ast.Constant)
            and isinstance(category.value, str)
            and category.value not in TRACE_EVENTS
        ):
            message = (
                f"trace category {category.value!r} is not registered in "
                "repro.sim.trace.TRACE_EVENTS"
            )
            close = get_close_matches(category.value, sorted(TRACE_EVENTS), n=1)
            if close:
                message += f" (did you mean {close[0]!r}?)"
            yield _finding("REP005", message, path, node)


def _iterates_transfers(node: ast.expr) -> bool:
    """Whether an iterated expression references a ``transfers`` name."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and sub.id == "transfers":
            return True
        if isinstance(sub, ast.Attribute) and sub.attr == "transfers":
            return True
    return False


def _check_rep006(tree: ast.AST, path: str, lines: list[str]) -> Iterator[Finding]:
    """REP006 — per-transfer statement loops in executor hot paths.

    Comprehensions are allowed (they build a value, not a scalar
    accumulation); only statement-level ``for``/``async for`` over a
    ``transfers`` collection is flagged, and only inside the pricing
    modules listed in :data:`_HOT_PATH_SUFFIXES`.
    """
    norm = str(path).replace("\\", "/")
    if not norm.endswith(_HOT_PATH_SUFFIXES):
        return
    for node in ast.walk(tree):
        if not isinstance(node, (ast.For, ast.AsyncFor)):
            continue
        if not _iterates_transfers(node.iter):
            continue
        yield _finding(
            "REP006",
            "per-transfer Python loop over step.transfers in an executor "
            "hot path; vectorize over numpy arrays (see payload_times / "
            "np.bincount in the executors) or allowlist with a "
            "'# REP006: <reason>' pragma",
            path, node,
        )


#: Receiver names that denote a plan-cache object (REP007).
_PLAN_CACHE_NAME = re.compile(r"(^|_)plan_?cache$", re.IGNORECASE)

#: The only modules allowed to mutate a plan cache directly (REP007):
#: the cache layer itself plus the backend lowering seams that populate
#: it. Matched as path suffixes, like :data:`_HOT_PATH_SUFFIXES`.
_PLAN_CACHE_SEAM_SUFFIXES = (
    "repro/backend/plancache.py",
    "repro/optical/network.py",
    "repro/optical/torus.py",
    "repro/electrical/network.py",
    "repro/backend/analytic.py",
)

_PLAN_CACHE_MUTATORS = frozenset({"put", "clear", "resize"})


def _is_plan_cache_receiver(node: ast.expr) -> bool:
    """Whether an expression names a plan-cache object.

    Covers ``plan_cache`` / ``self.plan_cache`` / ``self._plan_cache``
    name chains and ``default_plan_cache()`` call results.
    """
    name = _terminal_name(node)
    if name is None:
        return False
    if isinstance(node, ast.Call):
        return name == "default_plan_cache"
    return bool(_PLAN_CACHE_NAME.search(name))


def _check_rep007(tree: ast.AST, path: str, lines: list[str]) -> Iterator[Finding]:
    """REP007 — direct plan-cache mutation outside the sanctioned seams.

    Only the lowering seams build complete keys (config fingerprint,
    payload width, delta salt); an ad-hoc ``put`` elsewhere can alias two
    configurations and replay the wrong plan, and an ad-hoc ``clear``
    silently skews the hit/miss tallies. Reads (``get``) are unrestricted.
    """
    norm = str(path).replace("\\", "/")
    if norm.endswith(_PLAN_CACHE_SEAM_SUFFIXES):
        return
    for node in ast.walk(tree):
        if not (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in _PLAN_CACHE_MUTATORS
        ):
            continue
        if not _is_plan_cache_receiver(node.func.value):
            continue
        yield _finding(
            "REP007",
            f"direct plan-cache .{node.func.attr}() outside "
            "repro.backend.plancache / the lowering seams; route writes "
            "through the plan_cache seam (or allowlist "
            "with a '# REP007: <reason>' pragma)",
            path, node,
        )


def _check_rep008(tree: ast.AST, path: str, lines: list[str]) -> Iterator[Finding]:
    """REP008 — pragma-shaped comments carrying no reason.

    A suppression without a reason is indistinguishable from a stale
    copy-paste; the reason is the audit record. Bare pragmas never
    suppress (see :func:`pragma_suppresses`) *and* are flagged here.
    """
    for index, line in enumerate(lines):
        found = pragma_at(line)
        if found is None or found[1]:
            continue
        rule_id = found[0]
        yield _finding(
            "REP008",
            f"bare {rule_id} pragma (no reason); a suppression must read "
            f"'# {rule_id}: <reason>' and without the reason it suppresses "
            "nothing",
            path,
            type("N", (), {"lineno": index + 1})(),
        )


_CHECKERS: dict[str, Callable[[ast.AST, str, list[str]], Iterator[Finding]]] = {
    "REP001": lambda tree, path, lines: _check_rep001(tree, path),
    "REP002": lambda tree, path, lines: _check_rep002(tree, path),
    "REP003": lambda tree, path, lines: _check_rep003(tree, path),
    "REP005": lambda tree, path, lines: _check_rep005(tree, path),
    "REP006": _check_rep006,
    "REP007": _check_rep007,
    "REP008": _check_rep008,
}


def apply_pragmas(findings: list[Finding], lines: list[str]) -> list[Finding]:
    """Drop findings covered by a reasoned pragma (shared escape hatch).

    Every REP rule honours the same ``# <RULEID>: <reason>`` convention.
    REP008 findings are exempt: a pragma cannot excuse its own missing
    reason.
    """
    kept: list[Finding] = []
    for finding in findings:
        lineno = finding.details.get("line", 0)
        if finding.rule_id != "REP008" and pragma_suppresses(
            finding.rule_id, lines, lineno
        ):
            continue
        kept.append(finding)
    return kept


def lint_source(
    source: str, path: str = "<string>", select: set[str] | None = None
) -> list[Finding]:
    """Lint one source string; returns findings sorted by line.

    Unparseable source yields a single ``SYNTAX`` finding (regardless of
    ``select`` — no rule can run on such a file). Findings covered by a
    reasoned ``# <RULEID>: <reason>`` pragma are dropped.

    Args:
        source: Python source text.
        path: Display path used in finding locations.
        select: Restrict to these rule ids (default: all).
    """
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return [syntax_finding(exc, path)]
    lines = source.splitlines()
    findings: list[Finding] = []
    for rule_id, checker in _CHECKERS.items():
        if select is not None and rule_id not in select:
            continue
        findings.extend(checker(tree, path, lines))
    findings = apply_pragmas(findings, lines)
    findings.sort(key=lambda f: (f.details.get("line", 0), f.rule_id))
    return findings


def lint_paths(
    paths: list[Path], select: set[str] | None = None
) -> list[Finding]:
    """Lint files and directories (``.py`` files, recursively)."""
    files: list[Path] = []
    for path in paths:
        if path.is_dir():
            files.extend(sorted(path.rglob("*.py")))
        else:
            files.append(path)
    findings: list[Finding] = []
    for file in files:
        findings.extend(
            lint_source(file.read_text(), path=str(file), select=select)
        )
    return findings


def existing_path(value: str) -> Path:
    """Argparse ``type`` for a lint target: a missing path is a usage error."""
    path = Path(value)
    if not path.exists():
        raise argparse.ArgumentTypeError(f"no such file or directory: {value}")
    return path


def main(argv: list[str] | None = None) -> int:
    """CLI: lint the given paths, print findings, exit 1 on any."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.check.lint",
        description="Reproduction-specific AST lint (REP001-REP008).",
    )
    parser.add_argument(
        "paths", nargs="*", type=existing_path, help="files or directories"
    )
    parser.add_argument(
        "--select",
        help="comma-separated rule ids to run (default: all)",
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="print the rule catalog"
    )
    args = parser.parse_args(argv)
    if args.list_rules:
        for rule_id, title in sorted(LINT_RULES.items()):
            print(f"{rule_id}  {title}")
        return 0
    if not args.paths:
        parser.error("no paths given")
    select = set(args.select.split(",")) if args.select else None
    if select is not None:
        unknown = select - set(LINT_RULES)
        if unknown:
            parser.error(f"unknown rule ids: {sorted(unknown)}")
    findings = lint_paths(args.paths, select=select)
    for finding in findings:
        print(finding.render())
    print(f"{len(findings)} finding(s)")
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
