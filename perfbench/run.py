#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the wrht-repro system.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fig6-sim --seed 1 --seconds 24 --trace 0
    python3 perfbench/run.py --workload live-faults --write-reference

A run repeats cold passes of one workload (see ``workloads.py``) for
``--seconds`` seconds, checks every cell's simulated outputs against the
pinned reference in ``reference/`` bit for bit, and prints each metric by
name, unit and sample count, then one JSON line. ``--trace 0`` reports the
end-to-end metrics (host time per pass and per cell, set-up time, peak
RSS, the share of clean cells); ``--trace 1`` alternates untraced and
traced passes and reports each layer's self time and counts, plus the
tracing overhead. The exit code is non-zero on any output mismatch.

Times are host seconds scaled to the reference host's speed: a fixed
pure-Python calibration load runs before every pass, and all of a run's
times are multiplied by ``CALIBRATION_S`` over its median duration.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
REFERENCE = BENCH / "reference"
OUT = ROOT / ".bench_out"
SETUP_PROBES = 5
REFERENCE_SCHEMA = "perfbench/reference/v1"
#: Seconds :func:`calibrate` takes on the reference host (2-core x86-64
#: container, CPython 3.11). Every reported time is scaled by
#: ``CALIBRATION_S`` over the median of the run's calibration samples,
#: because that host's speed drifts by +-20% over minutes while the speed
#: ratio of two pure-Python loads stays within a few percent.
CALIBRATION_S = 0.07
#: Calibration samples taken before each pass.
CALIBRATION_SAMPLES = 2

END_TO_END_UNITS = {
    "wall_s": "s",
    "cell_p50_ms": "ms",
    "cell_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "clean_frac": "ratio",
}

COUNTS = (
    "electrical.flows.flows",
    "optical.circuit.claims",
    "optical.rwa.rounds",
    "optical.reconfig.hold",
    "check.findings.error",
    "sim.events",
    "sim.retries",
    "sim.interrupted",
)


def calibrate() -> float:
    """Seconds for a fixed pure-Python load (dicts, sets, tuples, sorting).

    The load is the benchmark's own code, so no change to the program can
    move it; it only measures how fast the host runs Python right now.
    """
    start = time.perf_counter()
    table: dict = {}
    for i in range(60_000):
        table[(i, i % 7)] = [i, i + 1, i + 2]
        members = {i % 97, i % 13}
        if (i, 3) in table:
            members.add(1)
    sorted(table, key=lambda key: -key[0])
    return time.perf_counter() - start


def _use_program_source() -> None:
    """Put the checkout's ``src`` first on the path, or fail without it."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: program source not found under {src}")
    sys.path.insert(0, str(src))


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name and its unit, in report order."""
    from tracing import CALL_COUNTED, TARGETS

    units = {f"{span}.calls": "count" for span in CALL_COUNTED}
    for _, _, span, _ in TARGETS:
        if span is not None:
            units[f"{span}.s"] = "s"
    units.update({name: "count" for name in COUNTS})
    units.update({
        "sim.events_per_s": "1/s",
        "backend.plancache.hits": "count",
        "backend.plancache.misses": "count",
        "backend.plancache.hit_ratio": "ratio",
        "runner.self.s": "s",
        "trace.overhead_s": "s",
        "trace.overhead_frac": "ratio",
    })
    return units


# -- one pass ---------------------------------------------------------------


def run_one_pass(workload, inputs, tiny: bool, tracer=None) -> dict:
    """One cold pass; returns its wall time, cells and layer figures."""
    from workloads import cold_start
    from repro.backend.plancache import default_plan_cache

    cold_start()
    stats = default_plan_cache().stats
    hits, misses = stats.hits, stats.misses
    if tracer is not None:
        tracer.reset()
        tracer.install()
    error = None
    start = time.perf_counter()
    try:
        cells = workload.run_pass(inputs, tiny, tracer)
    except Exception as exc:  # a pass that raises is a failed pass, reported
        cells, error = [], repr(exc)
    wall = time.perf_counter() - start
    if tracer is not None:
        tracer.uninstall()
    out = {
        "wall": wall, "cells": cells, "error": error, "traced": tracer is not None,
        "hits": stats.hits - hits, "misses": stats.misses - misses,
    }
    if tracer is not None:
        out["layers"] = layer_figures(tracer, wall, out["hits"], out["misses"])
    return out


def layer_figures(tracer, wall: float, hits: int, misses: int) -> dict:
    """Per-layer self seconds and counts of one traced pass (unscaled)."""
    self_s = tracer.self_times()
    calls = tracer.calls()
    units = per_layer_units()
    figures = {}
    for name, unit in units.items():
        if name.endswith(".calls"):
            figures[name] = calls.get(name[: -len(".calls")], 0)
        elif unit == "s" and not name.startswith(("runner.", "trace.")):
            figures[name] = self_s.get(name[: -len(".s")], 0.0)
    for name in COUNTS:
        figures[name] = tracer.counts.get(name, 0)
    live_s = self_s.get("optical.livesim.run", 0.0)
    figures["sim.events_per_s"] = figures["sim.events"] / live_s if live_s else 0.0
    figures["backend.plancache.hits"] = hits
    figures["backend.plancache.misses"] = misses
    lookups = hits + misses
    figures["backend.plancache.hit_ratio"] = hits / lookups if lookups else 0.0
    figures["runner.self.s"] = wall - tracer.top_level_s()
    return figures


# -- checking ---------------------------------------------------------------


def check_pass(cells, reference_cells: dict, cells_per_pass: int) -> list[tuple[str, str]]:
    """(key, reason) for every cell that raised or mismatched the reference.

    A cell verifying with fewer ERROR rules than pinned is not a failure
    (the defect was fixed); one with a rule the reference lacks is.
    """
    failures = []
    for cell in cells:
        pinned = reference_cells.get(cell.key)
        if cell.raised is not None:
            failures.append((cell.key, f"raised {cell.raised}"))
        elif pinned is None:
            failures.append((cell.key, "not in the reference"))
        elif cell.values != pinned["values"]:
            failures.append((cell.key, f"got {cell.values}, pinned {pinned['values']}"))
        elif not set(cell.errors) <= set(pinned["errors"]):
            failures.append((cell.key, f"new verification errors {list(cell.errors)}"))
    for i in range(cells_per_pass - len(cells)):
        failures.append((f"missing-{i}", "the pass produced fewer cells than pinned"))
    return failures


def tail_percentile(values: list[float], pct: int) -> tuple[float, int]:
    """Nearest-rank percentile of ``values`` and how many lie beyond it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


# -- measurement ------------------------------------------------------------


def measure(workload, inputs, seconds: float, trace: bool, reference: dict,
            tiny: bool = False, min_passes: int | None = None) -> dict:
    """Repeat cold passes for ``seconds``, checking each; summarize."""
    from tracing import LayerTracer

    cells_per_pass = reference["manifest"]["cells_per_pass"]
    timed_per_pass = reference["manifest"]["timed_cells_per_pass"]
    if min_passes is None:
        min_passes = workload.min_passes(timed_per_pass)
    tracer = LayerTracer() if trace else None
    passes = []
    calibration = []
    deadline = time.perf_counter() + seconds
    while True:
        traced = trace and len(passes) % 2 == 1
        calibration += [calibrate() for _ in range(CALIBRATION_SAMPLES)]
        record = run_one_pass(workload, inputs, tiny, tracer if traced else None)
        record["failures"] = check_pass(record["cells"], reference["cells"],
                                        cells_per_pass)
        if record["error"] is not None:
            record["failures"].append(("pass", record["error"]))
        passes.append(record)
        untraced = sum(1 for p in passes if not p["traced"])
        if trace:  # the untraced passes only serve the overhead figure
            enough = untraced >= 2 and len(passes) >= 4
        else:
            enough = untraced >= min_passes
        if enough and time.perf_counter() >= deadline:
            break
    return {"passes": passes, "tracer": tracer, "cells_per_pass": cells_per_pass,
            "scale": CALIBRATION_S / statistics.median(calibration)}


def summarize(workload, run: dict, setup_samples: list[float]) -> dict:
    """End-to-end and per-layer metrics plus the correctness tally."""
    passes = run["passes"]
    untraced = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    attempted = sum(max(len(p["cells"]), run["cells_per_pass"]) for p in passes)
    failed = sum(len(p["failures"]) for p in passes)
    failed_keys = {key for p in passes for key, _ in p["failures"]}
    unclean = sum(1 for p in passes for c in p["cells"]
                  if c.errors and c.key not in failed_keys)
    scale = run["scale"]
    by_key: dict[str, list[float]] = {}
    for p in untraced:
        for c in p["cells"]:
            if c.host_s is not None:
                by_key.setdefault(c.key, []).append(c.host_s * scale * 1e3)
    cell_ms = [ms for samples in by_key.values() for ms in samples]
    # The median over grid cells of each cell's median across passes: the
    # pooled median would sit between two cost classes of cells (fig6 has
    # four algorithms) and read the noisy extremes of both.
    key_ms = [statistics.median(samples) for samples in by_key.values()]
    tail, beyond = tail_percentile(cell_ms, workload.tail_pct)
    walls = [p["wall"] * scale for p in untraced]
    end_to_end = {
        "wall_s": statistics.median(walls),
        "cell_p50_ms": statistics.median(key_ms),
        "cell_tail_ms": tail,
        "setup_s": statistics.median(setup_samples) * scale,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "clean_frac": (attempted - failed - unclean) / attempted,
    }
    samples = {
        "wall_s": f"median of {len(walls)} passes, host-speed scaled",
        "cell_p50_ms": f"p50 over {len(key_ms)} grid cells of each one's "
                       f"median across {len(walls)} passes",
        "cell_tail_ms": f"p{workload.tail_pct} of {len(cell_ms)} cells, "
                        f"{beyond} beyond it",
        "setup_s": f"median of {len(setup_samples)} fresh-process set-ups",
        "peak_rss_mb": "peak RSS of the benchmark process",
        "clean_frac": f"{attempted - failed - unclean} of {attempted} cells ran, "
                      "matched the reference and verified clean",
    }
    per_layer = {}
    if traced:
        units = per_layer_units()
        for name in traced[0]["layers"]:
            value = statistics.median(p["layers"][name] for p in traced)
            if units[name] == "s":
                value *= scale
            elif units[name] == "1/s":
                value /= scale
            per_layer[name] = value
        overhead = (statistics.median(p["wall"] for p in traced) * scale
                    - end_to_end["wall_s"])
        per_layer["trace.overhead_s"] = overhead
        per_layer["trace.overhead_frac"] = overhead / end_to_end["wall_s"]
    return {
        "end_to_end": end_to_end, "samples": samples, "per_layer": per_layer,
        "attempted": attempted, "failed": failed, "unclean": unclean,
        "n_traced": len(traced),
    }


def setup_probe_times(workload: str, seed: int) -> list[float]:
    """Wall seconds of fresh processes that import and build inputs only."""
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload",
             workload, "--seed", str(seed), "--setup-probe"],
            check=True, cwd=ROOT, stdout=subprocess.DEVNULL, timeout=120,
        )
        times.append(time.perf_counter() - start)
    return times


# -- reference and manifest -------------------------------------------------


def grid_fingerprint(workload, tiny: bool = False) -> str:
    from repro.obs.manifest import fingerprint

    return fingerprint((workload.name, workload.grid(tiny)))


def manifest(workload, seed: int | None, extra: dict | None = None) -> dict:
    import numpy

    from repro.obs.manifest import git_sha

    return {
        "schema": REFERENCE_SCHEMA,
        "workload": workload.name,
        "grid": repr(workload.grid(False)),
        "grid_fingerprint": grid_fingerprint(workload),
        "seed": seed,
        "git_sha": git_sha(ROOT),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        **(extra or {}),
    }


def build_reference(workload, tiny: bool = False) -> dict:
    """Pin every cell any seed can produce; one extra pass checks determinism."""
    cells: dict[str, dict] = {}
    sizes = set()
    for inputs in workload.reference_inputs(tiny) + [workload.inputs(0, tiny)]:
        record = run_one_pass(workload, inputs, tiny)
        if record["error"] is not None:
            raise RuntimeError(f"{workload.name}: pass raised {record['error']}")
        sizes.add((len(record["cells"]),
                   sum(1 for c in record["cells"] if c.host_s is not None)))
        for cell in record["cells"]:
            if cell.raised is not None:
                raise RuntimeError(f"{cell.key} raised {cell.raised}")
            pinned = {"values": cell.values, "errors": list(cell.errors)}
            if cells.setdefault(cell.key, pinned) != pinned:
                raise RuntimeError(f"{cell.key} is not deterministic")
    if len(sizes) != 1:
        raise RuntimeError(f"{workload.name}: passes differ in size {sizes}")
    (n_cells, n_timed), = sizes
    return {"cells_per_pass": n_cells, "timed_cells_per_pass": n_timed,
            "cells": cells}


def write_reference(workload) -> Path:
    pinned = build_reference(workload)
    path = REFERENCE / f"{workload.name}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    body = {
        "manifest": manifest(workload, None, {
            "cells_per_pass": pinned["cells_per_pass"],
            "timed_cells_per_pass": pinned["timed_cells_per_pass"],
        }),
        "cells": pinned["cells"],
    }
    path.write_text(json.dumps(body, indent=1, sort_keys=True) + "\n")
    return path


def load_reference(workload) -> dict:
    """The pinned reference, refused when it was made on another grid."""
    body = json.loads((REFERENCE / f"{workload.name}.json").read_text())
    pinned = body["manifest"]
    if pinned["schema"] != REFERENCE_SCHEMA:
        raise SystemExit(f"perfbench: unknown reference schema {pinned['schema']!r}")
    if pinned["grid_fingerprint"] != grid_fingerprint(workload):
        raise SystemExit(
            f"perfbench: reference for {workload.name} was made on another grid "
            f"({pinned['grid_fingerprint']} != {grid_fingerprint(workload)}); "
            "rerun with --write-reference"
        )
    return body


# -- output -----------------------------------------------------------------


def print_results(workload, args, summary: dict, run: dict) -> dict:
    """Print the human-readable lines; return the JSON result object."""
    print(f"workload {workload.name}  seed {args.seed}  "
          f"passes {len(run['passes'])} ({summary['n_traced']} traced)  "
          f"cells {summary['attempted']}")
    if args.trace:
        units = per_layer_units()
        metrics = {name: {"value": summary["per_layer"][name], "unit": units[name]}
                   for name in units}
        for name, metric in metrics.items():
            print(f"  {name:44s} {metric['value']:>14.6g} {metric['unit']:6s} "
                  f"median of {summary['n_traced']} traced passes")
    else:
        metrics = {name: {"value": summary["end_to_end"][name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
        for name, metric in metrics.items():
            print(f"  {name:14s} {metric['value']:>12.6g} {metric['unit']:6s} "
                  f"{summary['samples'][name]}")
    verify_errors: dict[tuple, set] = {}
    for cell in run["passes"][0]["cells"]:
        if cell.errors:
            verify_errors.setdefault(cell.errors, set()).add(cell.key)
    for rules, keys in sorted(verify_errors.items()):
        print(f"  verification errors {', '.join(rules)} in {len(keys)} cells "
              f"per pass: {', '.join(sorted(keys))}")
    shown = 0
    for record in run["passes"]:
        for key, reason in record["failures"]:
            if shown < 20:
                print(f"  FAILED {key}: {reason}")
            shown += 1
    return {
        "correct": summary["failed"] == 0,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true",
                        help="pin the workload's outputs in reference/")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    _use_program_source()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    inputs = workload.inputs(args.seed, False)
    if args.setup_probe:
        return 0
    if args.write_reference:
        print(f"wrote {write_reference(workload)}")
        return 0

    reference = load_reference(workload)
    setup_samples = setup_probe_times(args.workload, args.seed)
    run = measure(workload, inputs, args.seconds, bool(args.trace), reference)
    summary = summarize(workload, run, setup_samples)

    OUT.mkdir(exist_ok=True)
    from repro.obs.manifest import write_run_manifest

    write_run_manifest(
        manifest(workload, args.seed, {
            "reference_fingerprint": reference["manifest"]["grid_fingerprint"],
            "seconds": args.seconds, "trace": args.trace,
            "passes": len(run["passes"]),
        }),
        OUT / f"{workload.name}-manifest.json",
    )
    if args.trace:
        run["tracer"].dump(OUT / f"{workload.name}-trace.json",
                           summary["per_layer"])
    result = print_results(workload, args, summary, run)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
