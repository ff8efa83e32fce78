"""Module-level call graph over stdlib ``ast`` — the flow rules' substrate.

The REP lint rules are lexical: they judge one call site in isolation.
The DET flow rules (:mod:`repro.check.flow`) are *interprocedural*:
"an unseeded RNG reachable from ``lower``" or "wall-clock reaching a
cache key" are properties of paths through the program, not of single
lines. This module builds the graph those rules walk:

- every function/method definition across the analyzed files, keyed by a
  stable qualified name ``module:Class.method`` / ``module:func``;
- every call site, resolved where statically possible to either an
  **internal** callee (a function in the analyzed set) or an **external**
  dotted name (``time.sleep``, ``os.replace``, ...).

Resolution is deliberately cheap but covers the shapes this codebase
actually uses:

- bare names: enclosing nested-function scopes, then module-level
  functions and classes, then import aliases (``from x import y as z``);
- ``self.m()`` / ``cls.m()``: the enclosing class, walking analyzed base
  classes (an inherited method resolves into the base that defines it);
- typed receivers: parameter annotations (``cache: PlanCache``),
  ``__init__`` attribute inference (``self.cache = PlanCache(...)`` or
  via a typed local), and dataclass-style class-level annotations — so
  ``self.engine.flush()`` resolves through ``self.engine = engine`` when
  ``engine``'s type is known;
- dotted module calls through import aliases (``np.random.default_rng``
  normalizes to ``numpy.random.default_rng``).

Unresolvable calls keep their terminal attribute name (``site.terminal``)
so effect heuristics can still pattern-match well-known method names
(``.write_bytes`` is a disk write whatever the receiver). The graph
over-approximates reachability and never executes code; the flow rules'
pragma escape hatch absorbs deliberate exceptions.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path

from repro.check.findings import Finding
from repro.check.lint import syntax_finding


def module_name(path: str) -> str:
    """Dotted module name for a source path.

    ``src/repro/check/flow.py`` → ``repro.check.flow``; paths
    outside a ``src``/package layout fall back to the file stem (fixture
    files in temp dirs still get a usable, unique-enough name).
    """
    norm = str(path).replace("\\", "/")
    parts = [p for p in norm.split("/") if p]
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][: -len(".py")]
    if "src" in parts:
        parts = parts[len(parts) - parts[::-1].index("src"):]
    elif "repro" in parts:
        parts = parts[parts.index("repro"):]
    else:
        parts = parts[-1:]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts) or "<anonymous>"


@dataclass
class FunctionInfo:
    """One analyzed function or method definition."""

    qualname: str
    module: str
    name: str
    class_key: str | None
    node: ast.FunctionDef | ast.AsyncFunctionDef
    path: str
    lineno: int
    params: tuple[str, ...]


@dataclass
class ClassInfo:
    """One analyzed class: its methods, typed attributes and bases."""

    key: str
    name: str
    module: str
    path: str
    methods: dict[str, str] = field(default_factory=dict)
    attr_types: dict[str, str] = field(default_factory=dict)
    base_keys: list[str] = field(default_factory=list)


@dataclass
class CallSite:
    """One call expression, as resolved as the graph could make it.

    Attributes:
        caller: Qualname of the enclosing function (``module:<module>``
            for module-level code).
        callee: Qualname of the resolved internal target, or ``None``.
        external: Normalized dotted name of an external target
            (``time.sleep``), or ``None`` when internal/unresolved.
        terminal: Rightmost identifier of the called expression — always
            available, even for unresolved attribute calls.
        constructs: Class key when the call constructs an analyzed class.
        node: The :class:`ast.Call` node.
        path: Source file of the call site.
        lineno: 1-based line of the call site.
    """

    caller: str
    callee: str | None
    external: str | None
    terminal: str | None
    constructs: str | None
    node: ast.Call
    path: str
    lineno: int


def _terminal(node: ast.expr) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Call):
        return _terminal(node.func)
    if isinstance(node, ast.Subscript):
        return _terminal(node.value)
    return None


def _annotation_class_name(node: ast.expr | None) -> ast.expr | None:
    """Strip ``Optional[T]`` / ``T | None`` / quotes down to the T node."""
    if node is None:
        return None
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        try:
            node = ast.parse(node.value, mode="eval").body
        except SyntaxError:
            return None
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
        left = _annotation_class_name(node.left)
        if left is not None and not (
            isinstance(left, ast.Constant) and left.value is None
        ):
            return left
        return _annotation_class_name(node.right)
    if isinstance(node, ast.Subscript):
        base = _terminal(node.value)
        if base in ("Optional", "Annotated"):
            inner = node.slice
            if isinstance(inner, ast.Tuple) and inner.elts:
                inner = inner.elts[0]
            return _annotation_class_name(inner)
        return None
    if isinstance(node, (ast.Name, ast.Attribute)):
        return node
    return None


class _ModuleIndex:
    """Per-module symbol table: imports, top-level defs, classes."""

    def __init__(self, name: str, path: str, tree: ast.Module) -> None:
        self.name = name
        self.path = path
        self.tree = tree
        self.imports: dict[str, str] = {}
        self.top_functions: dict[str, str] = {}
        self.top_classes: dict[str, str] = {}

    def resolve_relative(self, level: int, module: str | None) -> str:
        parts = self.name.split(".")
        # level 1 = the containing package of this module.
        base = parts[: len(parts) - level] if level <= len(parts) else []
        if module:
            base = base + module.split(".")
        return ".".join(base)


class CallGraph:
    """The analyzed function set, class set and resolved call sites."""

    def __init__(self) -> None:
        self.functions: dict[str, FunctionInfo] = {}
        self.classes: dict[str, ClassInfo] = {}
        self.calls: dict[str, list[CallSite]] = {}
        self._dotted_functions: dict[str, str] = {}
        self._dotted_classes: dict[str, str] = {}
        self._modules: dict[str, _ModuleIndex] = {}

    # -- lookups --------------------------------------------------------
    def sites(self, caller: str) -> list[CallSite]:
        """Call sites inside ``caller`` (empty for leaves/unknowns)."""
        return self.calls.get(caller, [])

    def callees(self, caller: str) -> set[str]:
        """Internal callees of ``caller``."""
        return {s.callee for s in self.sites(caller) if s.callee is not None}

    def method_of(self, class_key: str, name: str) -> str | None:
        """Resolve ``name`` on ``class_key``, walking analyzed bases."""
        seen: set[str] = set()
        stack = [class_key]
        while stack:
            key = stack.pop()
            if key in seen:
                continue
            seen.add(key)
            info = self.classes.get(key)
            if info is None:
                continue
            if name in info.methods:
                return info.methods[name]
            stack.extend(info.base_keys)
        return None

    # -- construction ---------------------------------------------------
    def _dotted_of(self, node: ast.expr, index: _ModuleIndex) -> str | None:
        """Normalized dotted name of a Name/Attribute chain, or ``None``."""
        parts: list[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        head = index.imports.get(node.id)
        if head is None:
            # A module-level symbol referenced by bare name still has a
            # dotted identity within its own module.
            if node.id in index.top_functions or node.id in index.top_classes:
                head = f"{index.name}.{node.id}"
            else:
                return ".".join([node.id, *reversed(parts)]) if parts else node.id
        return ".".join([head, *reversed(parts)])

    def _index_module(self, path: str, tree: ast.Module) -> _ModuleIndex:
        index = _ModuleIndex(module_name(path), path, tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.asname:
                        index.imports[alias.asname] = alias.name
                    else:
                        root = alias.name.split(".")[0]
                        index.imports[root] = root
            elif isinstance(node, ast.ImportFrom):
                base = (
                    index.resolve_relative(node.level, node.module)
                    if node.level
                    else (node.module or "")
                )
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    local = alias.asname or alias.name
                    index.imports[local] = f"{base}.{alias.name}" if base else alias.name
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                index.top_functions[node.name] = f"{index.name}:{node.name}"
            elif isinstance(node, ast.ClassDef):
                index.top_classes[node.name] = f"{index.name}:{node.name}"
        return index

    def _collect_defs(self, index: _ModuleIndex) -> None:
        mod = index.name

        def visit(node: ast.AST, scope: list[str], class_key: str | None) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    qual = f"{mod}:{'.'.join([*scope, child.name])}"
                    args = child.args
                    params = tuple(
                        a.arg
                        for a in (
                            *args.posonlyargs, *args.args, *args.kwonlyargs
                        )
                    )
                    self.functions[qual] = FunctionInfo(
                        qualname=qual,
                        module=mod,
                        name=child.name,
                        class_key=class_key,
                        node=child,
                        path=index.path,
                        lineno=child.lineno,
                        params=params,
                    )
                    if class_key is not None and len(scope) == 1:
                        self.classes[class_key].methods[child.name] = qual
                    if not scope:
                        self._dotted_functions[f"{mod}.{child.name}"] = qual
                    visit(child, [*scope, child.name], None)
                elif isinstance(child, ast.ClassDef):
                    key = f"{mod}:{'.'.join([*scope, child.name])}"
                    self.classes[key] = ClassInfo(
                        key=key, name=child.name, module=mod, path=index.path
                    )
                    if not scope:
                        self._dotted_classes[f"{mod}.{child.name}"] = key
                    visit(child, [*scope, child.name], key)
                else:
                    visit(child, scope, class_key)

        visit(index.tree, [], None)

    def _resolve_class_ref(
        self, node: ast.expr | None, index: _ModuleIndex
    ) -> str | None:
        """Class key for a Name/Attribute class reference, or ``None``."""
        node = _annotation_class_name(node)
        if node is None:
            return None
        dotted = self._dotted_of(node, index)
        if dotted is None:
            return None
        key = self._dotted_classes.get(dotted)
        if key is not None:
            return key
        terminal = dotted.rsplit(".", 1)[-1]
        local = index.top_classes.get(terminal)
        if local is not None and dotted == f"{index.name}.{terminal}":
            return local
        return None

    def _infer_class_types(self, index: _ModuleIndex) -> None:
        """Populate ``attr_types`` from annotations and ``__init__`` bodies."""
        for key, info in self.classes.items():
            if info.module != index.name:
                continue
            class_node = self._class_node(index, info.name)
            if class_node is None:
                continue
            for stmt in class_node.body:
                if isinstance(stmt, ast.AnnAssign) and isinstance(
                    stmt.target, ast.Name
                ):
                    attr_key = self._resolve_class_ref(stmt.annotation, index)
                    if attr_key is not None:
                        info.attr_types[stmt.target.id] = attr_key
            for base in class_node.bases:
                base_key = self._resolve_class_ref(base, index)
                if base_key is not None:
                    info.base_keys.append(base_key)
            init = info.methods.get("__init__")
            if init is None:
                continue
            fn = self.functions[init]
            var_types = self._param_types(fn, index)
            for stmt in ast.walk(fn.node):
                if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
                    target, value = stmt.targets[0], stmt.value
                    inferred = self._expr_type(value, index, None, var_types)
                    if inferred is None:
                        continue
                    if isinstance(target, ast.Name):
                        var_types[target.id] = inferred
                    elif (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                    ):
                        info.attr_types.setdefault(target.attr, inferred)
                elif isinstance(stmt, ast.AnnAssign):
                    target = stmt.target
                    attr_key = self._resolve_class_ref(stmt.annotation, index)
                    if attr_key is None:
                        continue
                    if (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                    ):
                        info.attr_types.setdefault(target.attr, attr_key)

    def _class_node(self, index: _ModuleIndex, name: str) -> ast.ClassDef | None:
        for node in ast.walk(index.tree):
            if isinstance(node, ast.ClassDef) and node.name == name:
                return node
        return None

    def _param_types(
        self, fn: FunctionInfo, index: _ModuleIndex
    ) -> dict[str, str]:
        types: dict[str, str] = {}
        args = fn.node.args
        for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs):
            key = self._resolve_class_ref(arg.annotation, index)
            if key is not None:
                types[arg.arg] = key
        return types

    def _expr_type(
        self,
        node: ast.expr,
        index: _ModuleIndex,
        class_key: str | None,
        var_types: dict[str, str],
    ) -> str | None:
        """Static type (class key) of an expression, where inferable."""
        if isinstance(node, ast.Name):
            if node.id == "self" and class_key is not None:
                return class_key
            return var_types.get(node.id)
        if isinstance(node, ast.Attribute):
            base = self._expr_type(node.value, index, class_key, var_types)
            if base is not None:
                info = self.classes.get(base)
                while info is not None:
                    if node.attr in info.attr_types:
                        return info.attr_types[node.attr]
                    info = (
                        self.classes.get(info.base_keys[0])
                        if info.base_keys
                        else None
                    )
            return None
        if isinstance(node, ast.Call):
            return self._resolve_class_ref(node.func, index)
        return None

    def _collect_calls(self, index: _ModuleIndex) -> None:
        mod = index.name
        module_caller = f"{mod}:<module>"

        def resolve(
            call: ast.Call,
            scopes: list[dict[str, str]],
            class_key: str | None,
            var_types: dict[str, str],
        ) -> tuple[str | None, str | None, str | None]:
            """-> (internal callee, external dotted, constructed class)."""
            func = call.func
            if isinstance(func, ast.Name):
                name = func.id
                for scope in reversed(scopes):
                    if name in scope:
                        return scope[name], None, None
                if name in index.top_functions:
                    return index.top_functions[name], None, None
                if name in index.top_classes:
                    key = index.top_classes[name]
                    return self.method_of(key, "__init__"), None, key
                dotted = index.imports.get(name)
                if dotted is not None:
                    if dotted in self._dotted_functions:
                        return self._dotted_functions[dotted], None, None
                    if dotted in self._dotted_classes:
                        key = self._dotted_classes[dotted]
                        return self.method_of(key, "__init__"), None, key
                    return None, dotted, None
                return None, name, None
            if isinstance(func, ast.Attribute):
                dotted = self._dotted_of(func, index)
                if dotted is not None:
                    if dotted in self._dotted_functions:
                        return self._dotted_functions[dotted], None, None
                    if dotted in self._dotted_classes:
                        key = self._dotted_classes[dotted]
                        return self.method_of(key, "__init__"), None, key
                receiver = func.value
                if (
                    isinstance(receiver, ast.Name)
                    and receiver.id in ("self", "cls")
                    and class_key is not None
                ):
                    target = self.method_of(class_key, func.attr)
                    if target is not None:
                        return target, None, None
                    return None, None, None
                rtype = self._expr_type(receiver, index, class_key, var_types)
                if rtype is not None:
                    target = self.method_of(rtype, func.attr)
                    if target is not None:
                        return target, None, None
                return None, dotted, None
            return None, None, None

        def visit_body(
            node: ast.AST,
            caller: str,
            scopes: list[dict[str, str]],
            class_key: str | None,
            var_types: dict[str, str],
        ) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    self._enter_function(
                        child, caller, scopes, class_key, index
                    )
                    continue
                if isinstance(child, ast.ClassDef):
                    # Methods were collected in the defs pass; walk them
                    # as their own callers.
                    for item in child.body:
                        if isinstance(
                            item, (ast.FunctionDef, ast.AsyncFunctionDef)
                        ):
                            self._enter_function(
                                item,
                                caller,
                                scopes,
                                self._class_key_for(child, index),
                                index,
                            )
                    continue
                if isinstance(child, ast.Call):
                    callee, external, constructs = resolve(
                        child, scopes, class_key, var_types
                    )
                    self.calls.setdefault(caller, []).append(
                        CallSite(
                            caller=caller,
                            callee=callee,
                            external=external,
                            terminal=_terminal(child.func),
                            constructs=constructs,
                            node=child,
                            path=index.path,
                            lineno=child.lineno,
                        )
                    )
                visit_body(child, caller, scopes, class_key, var_types)

        self._visit_body = visit_body  # reused by _enter_function
        visit_body(index.tree, module_caller, [], None, {})

    def _class_key_for(self, node: ast.ClassDef, index: _ModuleIndex) -> str | None:
        return index.top_classes.get(node.name)

    def _enter_function(
        self,
        node: ast.FunctionDef | ast.AsyncFunctionDef,
        outer_caller: str,
        scopes: list[dict[str, str]],
        class_key: str | None,
        index: _ModuleIndex,
    ) -> None:
        """Switch caller context into ``node`` and walk its body."""
        # Find this def's qualname by matching (module, name, lineno).
        qual = None
        for candidate, info in self.functions.items():
            if (
                info.module == index.name
                and info.name == node.name
                and info.lineno == node.lineno
            ):
                qual = candidate
                break
        if qual is None:  # shadowed redefinition — attribute to outer
            qual = outer_caller
        fn = self.functions.get(qual)
        var_types = self._param_types(fn, index) if fn is not None else {}
        if fn is not None:
            for stmt in ast.walk(node):
                if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
                    target = stmt.targets[0]
                    if isinstance(target, ast.Name):
                        inferred = self._expr_type(
                            stmt.value, index, class_key, var_types
                        )
                        if inferred is not None:
                            var_types.setdefault(target.id, inferred)
        nested = {
            child.name: f"{qual.split(':')[0]}:"
            + f"{qual.split(':')[1]}.{child.name}"
            for child in node.body
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        self._visit_body(
            node, qual, [*scopes, nested], class_key, var_types
        )


def build_callgraph(
    files: list[tuple[str, str]],
) -> tuple[CallGraph, list[Finding]]:
    """Build one call graph over ``(path, source)`` pairs.

    Unparseable files are reported as ``SYNTAX`` findings and excluded
    from the graph (every parseable file still contributes).
    """
    graph = CallGraph()
    findings: list[Finding] = []
    indices: list[_ModuleIndex] = []
    for path, source in files:
        try:
            tree = ast.parse(source, filename=path)
        except SyntaxError as exc:
            findings.append(syntax_finding(exc, path))
            continue
        index = graph._index_module(path, tree)
        graph._modules[index.name] = index
        indices.append(index)
    for index in indices:
        graph._collect_defs(index)
    for index in indices:
        graph._infer_class_types(index)
    for index in indices:
        graph._collect_calls(index)
    return graph, findings


def load_files(paths: list[str | Path]) -> list[tuple[str, str]]:
    """Expand files/directories into ``(path, source)`` pairs."""
    files: list[tuple[str, str]] = []
    for path in paths:
        p = Path(path)
        if p.is_dir():
            for file in sorted(p.rglob("*.py")):
                files.append((str(file), file.read_text()))
        else:
            files.append((str(p), p.read_text()))
    return files
