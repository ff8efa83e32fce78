"""Plan determinism, checked on real outputs under two hash seeds.

Every figure and the bake-off rest on one property: lowering a schedule is
a pure function of (algorithm, N, w, config). A set iterated in string-hash
order on the RWA path, an unseeded RNG reached from ``lower()`` or an
``id()``/wall-clock value in a plan-cache key would each break it without
failing any single-process test. This test runs the same digest script in
two concurrent subprocesses with ``PYTHONHASHSEED=0`` and
``PYTHONHASHSEED=1`` and compares their outputs line by line. The digest
covers:

- the 48 golden cells (:func:`repro.check.cli.golden_cells` over
  ``FIGURES``) lowered on optical: total time, rounds per profile entry
  and every circuit's (src, dst, direction, fiber, wavelength);
- the bake-off line-up at N=64 on all three backends, optical with MRR
  tuning on so the reconfigure-vs-hold decision is covered;
- the sorted ``repr`` of every plan-cache key.

Print the digest directly with::

    $ PYTHONPATH=src python tests/test_determinism.py
"""

from __future__ import annotations

import contextlib
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

ROOT = Path(__file__).resolve().parents[1]

#: Bake-off cells: N, wavelengths, payload elements and the optical MRR
#: tuning time (non-zero, so every optical cell chooses between
#: reconfiguring and holding a wavelength partition).
BAKEOFF_N = 64
BAKEOFF_W = 64
BAKEOFF_ELEMS = 100_000
BAKEOFF_T_TUNE = 10e-6


def _bakeoff_lineup() -> list[tuple[str, str, dict]]:
    """(label, builder, kwargs): every registered builder, SCRing at q=1, 4."""
    from repro.collectives.registry import available_algorithms

    lineup = []
    for algo in available_algorithms():
        if algo == "scring":
            lineup += [("scring-q1", algo, {"pipeline": 1}),
                       ("scring-q4", algo, {"pipeline": 4})]
        else:
            lineup.append((algo, algo, {}))
    return lineup


def _golden_lines() -> list[str]:
    from repro.check.cli import golden_cells
    from repro.check.context import optical_context
    from repro.runner.experiments import (
        FIGURES,
        _build_cell_schedule,
        get_backend,
    )

    lines = []
    for fig in FIGURES:
        for cell in golden_cells(fig):
            n, w = cell["n"], cell["w"]
            backend = get_backend("optical", n, w, "calibrated")
            workload = SimpleNamespace(n_params=8 * n)
            schedule = _build_cell_schedule(
                cell["algo"], n, w, workload, cell["wrht_m"]
            )
            context = optical_context(backend, schedule)
            result = backend.execute(context.plan)
            label = f"{fig} {cell['algo']} N={n} w={w} m={cell['wrht_m']}"
            rounds = [record.rounds for record in result.timeline]
            lines.append(
                f"{label} total={result.total_time.hex()} rounds={rounds}"
            )
            for index, circuit_rounds in sorted(context.circuit_rounds.items()):
                for r, circuits in enumerate(circuit_rounds):
                    circuits_text = " ".join(
                        f"{c.transfer.src}>{c.transfer.dst}:"
                        f"{c.route.direction.value}:{c.fiber}:{c.wavelength}"
                        for c in circuits
                    )
                    lines.append(f"{label} entry={index} round={r} {circuits_text}")
    return lines


def _bakeoff_lines() -> list[str]:
    from repro.collectives.registry import build_schedule
    from repro.runner.experiments import get_backend

    lines = []
    for backend_name in ("optical", "electrical", "analytic"):
        t_tune = BAKEOFF_T_TUNE if backend_name == "optical" else 0.0
        backend = get_backend(
            backend_name, BAKEOFF_N, BAKEOFF_W, "calibrated", t_tune=t_tune
        )
        for label, algo, extra in _bakeoff_lineup():
            if backend_name == "analytic" and algo == "dbtree":
                continue  # no closed form: the analytic backend rejects it
            kwargs = dict(extra, materialize=False)
            if algo == "wrht":
                kwargs["n_wavelengths"] = BAKEOFF_W
            elif algo == "hring":
                kwargs["m"] = 5
            schedule = build_schedule(algo, BAKEOFF_N, BAKEOFF_ELEMS, **kwargs)
            plan = backend.lower(schedule, bytes_per_elem=4.0)
            result = backend.execute(plan)
            decision = plan.meta.get("reconfig", {}).get("decision")
            lines.append(
                f"bakeoff {label} {backend_name} N={BAKEOFF_N} "
                f"total={result.total_time.hex()} decision={decision}"
            )
    return lines


def digest_lines() -> list[str]:
    """The full digest, in a fixed order; must not depend on the hash seed."""
    from repro.backend.plancache import default_plan_cache

    lines = _golden_lines() + _bakeoff_lines()
    # Keys are read straight off the LRU: every lowering above went through
    # the process-wide cache, so each key a backend composed is here.
    keys = sorted(repr(key) for key in default_plan_cache()._entries)
    lines += [f"key {key}" for key in keys]
    return lines


def _run_digests(tmp_path: Path, seeds: tuple[str, ...]) -> dict[str, list[str]]:
    """Run the digest concurrently once per hash seed; seed -> lines."""
    pythonpath = os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])
    )
    procs = {}
    with contextlib.ExitStack() as files:
        try:
            for seed in seeds:
                env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=pythonpath)
                out = files.enter_context((tmp_path / f"{seed}.out").open("w"))
                err = files.enter_context((tmp_path / f"{seed}.err").open("w"))
                procs[seed] = subprocess.Popen(
                    [sys.executable, __file__], cwd=ROOT, env=env,
                    stdout=out, stderr=err,
                )
            codes = {seed: proc.wait(timeout=600) for seed, proc in procs.items()}
        finally:
            for proc in procs.values():
                proc.kill()  # a no-op once the process has exited
                proc.wait()
    for seed, code in codes.items():
        stderr = (tmp_path / f"{seed}.err").read_text()
        assert code == 0, f"digest under PYTHONHASHSEED={seed} failed:\n{stderr}"
    return {
        seed: (tmp_path / f"{seed}.out").read_text().splitlines() for seed in seeds
    }


def _around(line: str, column: int, width: int = 160) -> str:
    """``line`` clipped to ``width`` characters around ``column``."""
    start = max(0, column - width // 4)
    head = "... " if start else ""
    tail = " ..." if start + width < len(line) else ""
    return head + line[start:start + width] + tail


def test_plans_identical_under_two_hash_seeds(tmp_path):
    digests = _run_digests(tmp_path, ("0", "1"))
    first, second = digests["0"], digests["1"]
    # The digest really covers the 48 golden cells, the 26 bake-off cells
    # (9 builders on optical and electrical, 8 on analytic) and the keys.
    assert sum(" total=" in line for line in first if line.startswith("fig")) == 48
    assert sum(line.startswith("bakeoff ") for line in first) == 26
    assert any(line.startswith("key ") for line in first)
    for number, (a, b) in enumerate(zip(first, second), start=1):
        if a != b:
            column = next(
                (i for i, (x, y) in enumerate(zip(a, b)) if x != y),
                min(len(a), len(b)),
            )
            pytest.fail(
                f"digest line {number} differs between hash seeds "
                f"at column {column}\n"
                f"  PYTHONHASHSEED=0: {_around(a, column)}\n"
                f"  PYTHONHASHSEED=1: {_around(b, column)}"
            )
    assert len(first) == len(second), (
        f"digest lengths differ: {len(first)} lines (seed 0) vs "
        f"{len(second)} (seed 1)"
    )


if __name__ == "__main__":
    sys.stdout.write("\n".join(digest_lines()) + "\n")
