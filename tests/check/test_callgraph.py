"""Call-graph construction and effect propagation (repro.check.callgraph/effects)."""

import textwrap

from repro.check.callgraph import build_callgraph, module_name
from repro.check.effects import (
    RNG,
    WALLCLOCK,
    key_sink_params,
    propagate_effects,
    tainted_returners,
)


def _graph(*files):
    """Build a graph from (path, source) pairs with dedented sources."""
    pairs = [(path, textwrap.dedent(source)) for path, source in files]
    graph, findings = build_callgraph(pairs)
    assert findings == []
    return graph


class TestModuleName:
    def test_src_layout_maps_to_dotted_module(self):
        assert module_name("src/repro/check/flow.py") == "repro.check.flow"

    def test_init_module_drops_suffix(self):
        assert module_name("src/repro/check/__init__.py") == "repro.check"

    def test_loose_file_falls_back_to_stem(self):
        assert module_name("/tmp/scratch.py") == "scratch"


class TestResolution:
    def test_module_level_function_call_resolves(self):
        graph = _graph(("m.py", """
            def helper():
                return 1

            def caller():
                return helper()
        """))
        assert graph.callees("m:caller") == {"m:helper"}

    def test_self_method_call_resolves(self):
        graph = _graph(("m.py", """
            class C:
                def a(self):
                    return self.b()

                def b(self):
                    return 2
        """))
        assert graph.callees("m:C.a") == {"m:C.b"}

    def test_inherited_method_resolves_through_base(self):
        graph = _graph(("m.py", """
            class Base:
                def work(self):
                    return 1

            class Child(Base):
                def go(self):
                    return self.work()
        """))
        assert graph.callees("m:Child.go") == {"m:Base.work"}

    def test_annotated_parameter_dispatches_to_class(self):
        graph = _graph(("m.py", """
            class Store:
                def put(self, key, value):
                    return None

            def save(store: Store, value):
                store.put("k", value)
        """))
        assert graph.callees("m:save") == {"m:Store.put"}

    def test_constructor_attribute_type_inferred(self):
        graph = _graph(("m.py", """
            class Engine:
                def run(self):
                    return 1

            class Service:
                def __init__(self):
                    self.engine = Engine()

                def tick(self):
                    return self.engine.run()
        """))
        assert "m:Engine.run" in graph.callees("m:Service.tick")

    def test_import_alias_normalizes_external_dotted_name(self):
        graph = _graph(("m.py", """
            import numpy as np

            def draw():
                return np.random.default_rng()
        """))
        (site,) = graph.sites("m:draw")
        assert site.external == "numpy.random.default_rng"

    def test_cross_module_import_resolves(self):
        graph = _graph(
            ("src/pkg/util.py", """
                def shared():
                    return 0
            """),
            ("src/pkg/app.py", """
                from pkg.util import shared

                def go():
                    return shared()
            """),
        )
        assert graph.callees("pkg.app:go") == {"pkg.util:shared"}

    def test_syntax_error_reported_not_raised(self):
        graph, findings = build_callgraph([("bad.py", "def broken(:\n")])
        assert [f.rule_id for f in findings] == ["SYNTAX"]
        assert graph.functions == {}


class TestEffectPropagation:
    def test_rng_propagates_transitively(self):
        graph = _graph(("m.py", """
            import random

            def low():
                return random.Random().random()

            def mid():
                low()

            def high():
                mid()
        """))
        report = propagate_effects(graph)
        assert report.has("m:high", RNG)
        chain = report.chain("m:high", RNG)
        assert chain == ["m:high", "m:mid", "m:low", "random.Random"]

    def test_wallclock_and_rng_are_distinct_effects(self):
        graph = _graph(("m.py", """
            import time
            import random

            def now():
                return time.perf_counter()

            def roll():
                return random.Random().random()
        """))
        report = propagate_effects(graph)
        assert report.has("m:now", WALLCLOCK)
        assert not report.has("m:now", RNG)
        assert report.has("m:roll", RNG)

    def test_seeded_rng_has_no_effect(self):
        graph = _graph(("m.py", """
            import random

            def roll():
                return random.Random(7).random()
        """))
        assert not propagate_effects(graph).has("m:roll", RNG)


class TestTaintAndSinks:
    def test_wallclock_taint_crosses_return_chain(self):
        graph = _graph(("m.py", """
            import time

            def clock():
                return time.perf_counter()

            def stamp():
                return clock()
        """))
        from repro.check.effects import WALLCLOCK_EXTERNALS, WALLCLOCK_TERMINALS

        tainted = tainted_returners(graph, WALLCLOCK_EXTERNALS, WALLCLOCK_TERMINALS)
        assert {"m:clock", "m:stamp"} <= tainted

    def test_key_named_function_params_become_sinks(self):
        graph = _graph(("m.py", """
            def make_key(payload, salt):
                return (payload, salt)
        """))
        sinks = key_sink_params(graph)
        assert sinks.get("m:make_key") == {"payload", "salt"}
