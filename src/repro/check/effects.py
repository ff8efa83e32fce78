"""Reaching effects over the call graph: what a call *transitively* does.

Three analyses, all fixpoints over :class:`~repro.check.callgraph.CallGraph`:

**Effect propagation** (:func:`propagate_effects`). A function's *base*
effects are the hazards it performs directly — :data:`WALLCLOCK`
(host-clock reads) and :data:`RNG` (unseeded RNG use). Its *reaching*
effects are the union of its base effects and every internal callee's
reaching effects. Witness edges are kept so a finding can print the
actual call chain (``lower -> place -> jitter -> random.Random``) instead
of a bare verdict.

**Taint returns** (:func:`tainted_returners`). A function *returns* a
tainted value when any of its ``return`` expressions contains a call to a
taint source (e.g. ``time.time``) or to another tainted returner —
directly or through a local variable assigned from one. This is what lets
DET001 follow a wall-clock value through ``def stamp(): return clock()``
wrappers rather than only spotting ``time.time()`` lexically.

**Key sinks** (:func:`key_sink_params`). A function parameter is a *key
sink* when its value flows into plan/cache identity: an argument of a
``LoweredPlan(...)`` construction, the key argument of a plan-cache
``.put``, an argument of the fingerprint/digest/salt helpers, any part of
the value returned by a ``*key*``-named function, or an argument passed
into another function's key-sink parameter. Flow is tracked positionally
and by keyword, and propagates through simple local assignments.

All three over-approximate (no aliasing, no path sensitivity); the flow
rules pair them with the pragma escape hatch for the deliberate cases.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass

from repro.check.callgraph import CallGraph, CallSite

#: Effect tags.
WALLCLOCK = "wallclock"
RNG = "rng"

#: Dotted external calls that read the host clock (taint sources for
#: DET001 and base WALLCLOCK effect).
WALLCLOCK_EXTERNALS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.process_time",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)

#: Terminal names of wall-clock reads when the dotted chain could not be
#: normalized (``self._clock.perf_counter`` and the like).
WALLCLOCK_TERMINALS = frozenset(
    {"perf_counter", "perf_counter_ns", "monotonic", "monotonic_ns", "time_ns"}
)

#: ``random`` module functions using the hidden global RNG (mirrors the
#: REP001 set in :mod:`repro.check.lint`).
RNG_EXTERNALS = frozenset(
    {
        f"random.{name}"
        for name in (
            "betavariate", "choice", "choices", "expovariate", "gauss",
            "getrandbits", "lognormvariate", "normalvariate", "paretovariate",
            "randbytes", "randint", "random", "randrange", "sample", "seed",
            "shuffle", "triangular", "uniform", "vonmisesvariate",
            "weibullvariate",
        )
    }
)

#: Functions whose every argument becomes part of a plan/cache identity.
KEY_HELPER_TERMINALS = frozenset(
    {"key_digest", "fingerprint", "delta_salted_key"}
)


def site_base_effects(site: CallSite) -> set[str]:
    """Base effects of one call site, judged without the graph."""
    effects: set[str] = set()
    dotted = site.external
    terminal = site.terminal
    if dotted in WALLCLOCK_EXTERNALS or terminal in WALLCLOCK_TERMINALS:
        effects.add(WALLCLOCK)
    if dotted in RNG_EXTERNALS:
        effects.add(RNG)
    if (
        terminal in ("default_rng", "Random")
        and not site.node.args
        and not site.node.keywords
    ):
        effects.add(RNG)
    return effects


@dataclass
class EffectReport:
    """Reaching effects plus the witness edges to reconstruct chains."""

    effects: dict[str, set[str]]
    #: ``(qualname, effect) -> CallSite`` introducing the effect locally.
    base_sites: dict[tuple[str, str], CallSite]
    #: ``(qualname, effect) -> callee qualname`` providing it transitively.
    via: dict[tuple[str, str], str]

    def has(self, qualname: str, effect: str) -> bool:
        """Whether ``qualname`` transitively performs ``effect``."""
        return effect in self.effects.get(qualname, ())

    def chain(self, qualname: str, effect: str, limit: int = 8) -> list[str]:
        """The witness call chain from ``qualname`` down to the effect."""
        chain = [qualname]
        current = qualname
        for _ in range(limit):
            if (current, effect) in self.base_sites:
                site = self.base_sites[(current, effect)]
                chain.append(site.external or site.terminal or "<call>")
                return chain
            nxt = self.via.get((current, effect))
            if nxt is None:
                return chain
            chain.append(nxt)
            current = nxt
        return chain


def propagate_effects(graph: CallGraph) -> EffectReport:
    """Fixpoint of reaching effects over the call graph."""
    effects: dict[str, set[str]] = {}
    base_sites: dict[tuple[str, str], CallSite] = {}
    via: dict[tuple[str, str], str] = {}
    callers: list[str] = list(graph.calls)
    for caller in callers:
        own: set[str] = set()
        for site in graph.sites(caller):
            for effect in site_base_effects(site):
                own.add(effect)
                base_sites.setdefault((caller, effect), site)
        effects[caller] = own
    changed = True
    while changed:
        changed = False
        for caller in callers:
            current = effects.setdefault(caller, set())
            for site in graph.sites(caller):
                if site.callee is None:
                    continue
                for effect in effects.get(site.callee, ()):
                    if effect not in current:
                        current.add(effect)
                        via.setdefault((caller, effect), site.callee)
                        changed = True
    return EffectReport(effects, base_sites, via)


# -- taint returns ------------------------------------------------------


def _call_matches(
    site_map: dict[int, CallSite],
    node: ast.Call,
    sources: frozenset[str],
    source_terminals: frozenset[str],
    tainted_fns: set[str],
) -> bool:
    site = site_map.get(id(node))
    if site is None:
        return False
    if site.external in sources:
        return True
    if site.terminal in source_terminals:
        return True
    return site.callee in tainted_fns


def _expr_tainted(
    node: ast.expr,
    site_map: dict[int, CallSite],
    sources: frozenset[str],
    source_terminals: frozenset[str],
    tainted_fns: set[str],
    tainted_locals: set[str],
) -> bool:
    for sub in ast.walk(node):
        if isinstance(sub, ast.Call) and _call_matches(
            site_map, sub, sources, source_terminals, tainted_fns
        ):
            return True
        if isinstance(sub, ast.Name) and sub.id in tainted_locals:
            return True
    return False


def _site_map(graph: CallGraph, qualname: str) -> dict[int, CallSite]:
    return {id(site.node): site for site in graph.sites(qualname)}


def tainted_locals_of(
    graph: CallGraph,
    qualname: str,
    sources: frozenset[str],
    source_terminals: frozenset[str] = frozenset(),
    tainted_fns: set[str] | None = None,
) -> set[str]:
    """Local names of ``qualname`` assigned (transitively) from a source."""
    fn = graph.functions.get(qualname)
    if fn is None:
        return set()
    tainted_fns = tainted_fns or set()
    site_map = _site_map(graph, qualname)
    tainted: set[str] = set()
    # Two passes catch forward-defined chains (a = src(); b = a).
    for _ in range(2):
        before = len(tainted)
        for node in ast.walk(fn.node):
            if isinstance(node, ast.Assign):
                if _expr_tainted(
                    node.value, site_map, sources, source_terminals,
                    tainted_fns, tainted,
                ):
                    for target in node.targets:
                        if isinstance(target, ast.Name):
                            tainted.add(target.id)
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                if isinstance(node.target, ast.Name) and _expr_tainted(
                    node.value, site_map, sources, source_terminals,
                    tainted_fns, tainted,
                ):
                    tainted.add(node.target.id)
        if len(tainted) == before:
            break
    return tainted


def tainted_returners(
    graph: CallGraph,
    sources: frozenset[str],
    source_terminals: frozenset[str] = frozenset(),
) -> set[str]:
    """Functions whose return value carries taint from ``sources``."""
    tainted_fns: set[str] = set()
    changed = True
    while changed:
        changed = False
        for qualname, fn in graph.functions.items():
            if qualname in tainted_fns:
                continue
            site_map = _site_map(graph, qualname)
            locals_ = tainted_locals_of(
                graph, qualname, sources, source_terminals, tainted_fns
            )
            for node in ast.walk(fn.node):
                if isinstance(node, ast.Return) and node.value is not None:
                    if _expr_tainted(
                        node.value, site_map, sources, source_terminals,
                        tainted_fns, locals_,
                    ):
                        tainted_fns.add(qualname)
                        changed = True
                        break
    return tainted_fns


# -- key sinks ----------------------------------------------------------

_KEY_NAME_HINT = ("key",)


def _is_key_named(name: str) -> bool:
    lowered = name.lower()
    return any(hint in lowered for hint in _KEY_NAME_HINT)


def _names_in(node: ast.expr) -> set[str]:
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}


def _sink_args_of_call(
    site: CallSite, sink_params: dict[str, set[str]], graph: CallGraph
) -> list[ast.expr]:
    """Argument expressions of ``site`` that land in a key identity."""
    node = site.node
    terminal = site.terminal
    out: list[ast.expr] = []
    if terminal == "LoweredPlan" or (
        site.constructs is not None
        and site.constructs.endswith(":LoweredPlan")
    ):
        out.extend(node.args)
        out.extend(kw.value for kw in node.keywords)
        return out
    if terminal in KEY_HELPER_TERMINALS:
        out.extend(node.args)
        out.extend(kw.value for kw in node.keywords)
        return out
    if terminal == "put" and isinstance(node.func, ast.Attribute) and node.args:
        # Any .put(key, value): the key argument is identity.
        out.append(node.args[0])
        return out
    if site.callee is not None and site.callee in sink_params:
        fn = graph.functions.get(site.callee)
        if fn is None:
            return out
        params = list(fn.params)
        if params and params[0] in ("self", "cls"):
            params = params[1:]
        sink_names = sink_params[site.callee]
        for i, arg in enumerate(node.args):
            if i < len(params) and params[i] in sink_names:
                out.append(arg)
        for kw in node.keywords:
            if kw.arg is not None and kw.arg in sink_names:
                out.append(kw.value)
    return out


def key_sink_params(graph: CallGraph) -> dict[str, set[str]]:
    """``qualname -> parameter names`` that flow into key identities."""
    sink_params: dict[str, set[str]] = {}
    changed = True
    while changed:
        changed = False
        for qualname, fn in graph.functions.items():
            params = set(fn.params) - {"self", "cls"}
            if not params:
                continue
            flowing: set[str] = set()
            # A *key*-named function's return value IS the identity.
            if _is_key_named(fn.name):
                for node in ast.walk(fn.node):
                    if isinstance(node, ast.Return) and node.value is not None:
                        flowing |= _names_in(node.value) & params
            for site in graph.sites(qualname):
                for arg in _sink_args_of_call(site, sink_params, graph):
                    flowing |= _names_in(arg) & params
            current = sink_params.setdefault(qualname, set())
            if not flowing <= current:
                current |= flowing
                changed = True
    return {q: names for q, names in sink_params.items() if names}
