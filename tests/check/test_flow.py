"""Adversarial fixtures for the DET flow rules (repro.check.flow).

Each rule id gets at least one injected violation asserting the exact id
fires, plus a near-miss fixture asserting it stays quiet. The suppression
pragma, the SARIF emitter, and the "repo src is clean" gate are covered at
the end.
"""

import json
import textwrap
from pathlib import Path

from repro.check.findings import Severity
from repro.check.flow import FLOW_RULES, analyze_files, analyze_paths
from repro.check.sarif import to_sarif

REPO_ROOT = Path(__file__).resolve().parents[2]


def _ids(*files, select=None):
    pairs = [(path, textwrap.dedent(source)) for path, source in files]
    return [f.rule_id for f in analyze_files(pairs, select=select)]


def _findings(source, select=None):
    return analyze_files([("m.py", textwrap.dedent(source))], select=select)


class TestDet001WallClockInKeys:
    def test_wall_clock_through_two_hops_reaches_cache_key(self):
        # time.perf_counter -> clock() -> stamp() -> make_key(...) -> put
        findings = _findings("""
            import time

            def clock():
                return time.perf_counter()

            def stamp():
                return clock()

            def make_key(tag, value):
                return (tag, value)

            def remember(cache, value):
                cache.put(make_key("plan", stamp()), value)
        """)
        ids = [f.rule_id for f in findings]
        assert "DET001" in ids
        assert all(rule_id == "DET001" for rule_id in ids)
        assert any("put" in f.message for f in findings)

    def test_wall_clock_into_key_return_flagged(self):
        assert "DET001" in _ids(("m.py", """
            import time

            def cache_key(cfg):
                return (cfg, time.time())
        """))

    def test_wall_clock_outside_keys_passes(self):
        assert _ids(("m.py", """
            import time

            def measure(fn):
                start = time.perf_counter()
                fn()
                return time.perf_counter() - start
        """)) == []

    def test_config_only_key_passes(self):
        assert _ids(("m.py", """
            def make_key(algo, n, w):
                return (algo, n, w)

            def remember(cache, algo, n, w, value):
                cache.put(make_key(algo, n, w), value)
        """)) == []


class TestDet002SetIterationOnLoweringPath:
    def test_set_iteration_reachable_from_lower_flagged(self):
        findings = _findings("""
            def color(nodes):
                order = []
                for node in set(nodes):
                    order.append(node)
                return order

            def lower(schedule):
                return color(schedule)
        """)
        assert [f.rule_id for f in findings] == ["DET002"]

    def test_sorted_set_iteration_passes(self):
        assert _ids(("m.py", """
            def color(nodes):
                return [n for n in sorted(set(nodes))]

            def lower(schedule):
                return color(schedule)
        """)) == []

    def test_set_iteration_off_lowering_path_passes(self):
        assert _ids(("m.py", """
            def summarize(nodes):
                return [n for n in set(nodes)]
        """)) == []


class TestDet003UnseededRngFromLower:
    def test_rng_two_calls_below_lower_flagged(self):
        findings = _findings("""
            import random

            def jitter():
                return random.Random().random()

            def place(nodes):
                return jitter()

            def lower(schedule):
                return place(schedule)
        """)
        assert [f.rule_id for f in findings] == ["DET003"]
        assert "jitter" in findings[0].details.get("chain", "")

    def test_seeded_rng_below_lower_passes(self):
        assert _ids(("m.py", """
            import random

            def place(nodes, seed):
                return random.Random(seed).random()

            def lower(schedule):
                return place(schedule, 7)
        """)) == []


class TestDet004ProcessLocalIdentity:
    def test_id_in_key_return_flagged(self):
        assert _ids(("m.py", """
            def coalesce_key(request):
                return id(request)
        """), select={"DET004"}) == ["DET004"]

    def test_hash_into_cache_put_flagged(self):
        assert _ids(("m.py", """
            def remember(cache, request, value):
                cache.put(hash(request.text), value)
        """), select={"DET004"}) == ["DET004"]

    def test_sha_digest_key_passes(self):
        assert _ids(("m.py", """
            import hashlib

            def coalesce_key(request):
                return hashlib.sha256(request).hexdigest()
        """), select={"DET004"}) == []


class TestPragmasAndDriver:
    def test_reasoned_pragma_suppresses_flow_finding(self):
        assert _ids(("m.py", """
            import time

            def cache_key(cfg):
                return (cfg, time.time())  # DET001: fixture, display-only stamp
        """)) == []

    def test_bare_pragma_does_not_suppress(self):
        assert _ids(("m.py", """
            import time

            def cache_key(cfg):
                return (cfg, time.time())  # DET001
        """)) == ["DET001"]

    def test_select_restricts_rules(self):
        source = ("m.py", """
            import time

            def cache_key(cfg):
                return (cfg, time.time())

            def coalesce_key(request):
                return id(request)
        """)
        assert _ids(source, select={"DET001"}) == ["DET001"]
        assert sorted(_ids(source)) == ["DET001", "DET004"]

    def test_syntax_error_becomes_finding(self):
        findings = analyze_files([("bad.py", "def broken(:\n")])
        assert [f.rule_id for f in findings] == ["SYNTAX"]
        assert findings[0].severity is Severity.ERROR

    def test_findings_carry_location_and_line(self):
        (finding,) = _findings("""
            import time

            def cache_key(cfg):
                return (cfg, time.time())
        """)
        assert finding.location == "m.py:5"
        assert finding.details["line"] == 5


class TestRepoIsClean:
    def test_flow_rules_clean_on_src(self):
        findings = analyze_paths([REPO_ROOT / "src"])
        assert findings == [], "\n".join(f.render() for f in findings)


class TestSarif:
    def test_sarif_2_1_0_shape(self):
        findings = _findings("""
            import time

            def cache_key(cfg):
                return (cfg, time.time())
        """)
        log = to_sarif(findings, rule_catalog=FLOW_RULES)
        assert log["version"] == "2.1.0"
        assert log["$schema"].endswith("sarif-schema-2.1.0.json")
        (run,) = log["runs"]
        driver = run["tool"]["driver"]
        assert driver["name"] == "repro.check.flow"
        rule_ids = [rule["id"] for rule in driver["rules"]]
        assert rule_ids == sorted(set(rule_ids))
        assert set(FLOW_RULES) <= set(rule_ids)
        (result,) = run["results"]
        assert result["ruleId"] == "DET001"
        assert result["level"] == "error"
        assert rule_ids[result["ruleIndex"]] == "DET001"
        location = result["locations"][0]["physicalLocation"]
        assert location["artifactLocation"]["uri"] == "m.py"
        assert location["region"]["startLine"] == 5
        json.dumps(log)  # must be serializable as-is

    def test_severity_level_mapping(self):
        from repro.check.findings import Finding

        log = to_sarif(
            [
                Finding("X001", Severity.WARNING, "warn", location="a.py:1"),
                Finding("X002", Severity.INFO, "note", location="a.py:2"),
            ]
        )
        levels = [r["level"] for r in log["runs"][0]["results"]]
        assert levels == ["warning", "note"]
