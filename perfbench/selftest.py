#!/usr/bin/env python3
"""Self-tests of the benchmark on tiny grids (about a minute).

Usage, from the repository root::

    python3 perfbench/selftest.py

Checks, for all four workloads: the metric names and units printed match
``BENCHMARK.json``; a traced pass's layer self times are non-negative and,
with ``runner.self.s``, add up to the pass wall time; the plan cache is
cold at the start of every pass; and a reference value perturbed in its
last bit is reported as a failed cell.
"""

from __future__ import annotations

import copy
import json
import math
import sys

import run

TOLERANCE_S = 1e-9


def check_metric_names() -> None:
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in declared["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in declared["per_layer"]}
    assert end_to_end == run.END_TO_END_UNITS, end_to_end
    assert per_layer == run.per_layer_units(), per_layer
    assert {w["name"] for w in declared["workloads"]} == set(WORKLOADS)


def check_workload(workload) -> None:
    pinned = run.build_reference(workload, tiny=True)
    reference = {"manifest": pinned, "cells": pinned["cells"]}
    inputs = workload.inputs(3, True)
    measured = run.measure(workload, inputs, 0.0, True, reference, min_passes=2,
                           tiny=True)
    summary = run.summarize(workload, measured, [0.5])
    assert summary["failed"] == 0, [p["failures"] for p in measured["passes"]]
    assert set(summary["end_to_end"]) == set(run.END_TO_END_UNITS)
    assert set(summary["per_layer"]) == set(run.per_layer_units())

    units = run.per_layer_units()
    for record in measured["passes"]:
        if not record["traced"]:
            continue
        seconds = [v for k, v in record["layers"].items()
                   if units[k] == "s" and not k.startswith("trace.")]
        assert min(seconds) >= -TOLERANCE_S, record["layers"]
        assert math.isclose(sum(seconds), record["wall"], abs_tol=TOLERANCE_S)
    spans = measured["tracer"].spans
    assert spans, "the traced pass recorded no spans"
    child = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        assert end >= start
        if parent >= 0:
            child[parent] += end - start
    for (_, start, end, _, _), inner in zip(spans, child):
        assert end - start - inner >= -TOLERANCE_S

    perturbed = copy.deepcopy(reference)
    cell = next(c for c in measured["passes"][0]["cells"]
                if isinstance(c.values.get("total_time"), float))
    values = perturbed["cells"][cell.key]["values"]
    values["total_time"] = math.nextafter(values["total_time"], math.inf)
    failures = run.check_pass(measured["passes"][0]["cells"], perturbed["cells"],
                              pinned["cells_per_pass"])
    assert [key for key, _ in failures] == [cell.key], failures
    print(f"ok {workload.name}: {len(measured['passes'])} passes, "
          f"{summary['attempted']} cells")


if __name__ == "__main__":
    run._use_program_source()
    from workloads import WORKLOADS

    check_metric_names()
    for workload in WORKLOADS.values():
        check_workload(workload)
    sys.exit(0)
