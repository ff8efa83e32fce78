"""The four benchmark workloads: their grids, inputs and one pass each.

A pass runs a workload's whole grid once, from cold caches, through the
program's public entry points, and returns one :class:`Cell` per timed
call (plus untimed checks) carrying the simulated outputs that the pinned
reference compares bit for bit.

The grids are the paper's and the bake-off's, shrunk so that one pass takes
2-4 s on a 2-core host and a run can take the median of several passes;
``tiny`` grids feed the benchmark's self-tests. Only ``live-faults`` reads
the seed: it picks each cell's dead wavelength and the fault time.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import repro.collectives.registry as collectives_registry
import repro.runner.faultsweep as faultsweep
from repro.backend.base import Backend
from repro.backend.plancache import default_plan_cache
from repro.check.engine import PlanVerificationError
from repro.check.findings import errors
from repro.dnn import PAPER_WORKLOADS
from repro.faults.models import DeadWavelength, FaultEvent
from repro.optical.config import OpticalSystemConfig
from repro.optical.livesim import LiveOpticalSimulation
from repro.runner import (
    clear_network_caches,
    run_fig4,
    run_fig5,
    run_fig6,
    run_fig7,
    run_table1,
)
from repro.runner.experiments import DEFAULT_WAVELENGTHS, HRING_M, get_backend
from repro.sim.rng import SeededRng

BYTES_PER_ELEM = 4.0
INTERPRETATION = "calibrated"


@dataclass
class Cell:
    """One checked outcome of a pass.

    Attributes:
        key: Stable name of the cell within the workload's grid.
        host_s: Host seconds of the timed call, or ``None`` for an untimed
            check.
        values: Simulated outputs pinned in the reference.
        errors: Sorted ERROR rule ids from plan verification.
        raised: ``repr`` of the exception the cell raised, if any.
    """

    key: str
    host_s: float | None
    values: dict = field(default_factory=dict)
    errors: tuple[str, ...] = ()
    raised: str | None = None


def cold_start() -> None:
    """Drop every cache a fresh ``wrht-repro`` process would not have."""
    clear_network_caches()
    cache = default_plan_cache()
    cache.clear()
    if len(cache):
        raise RuntimeError("plan cache not empty at the start of a pass")


class RunTimer:
    """Times every ``Backend.run`` inside the block as one cell."""

    def __init__(self, tracer=None) -> None:
        self.tracer = tracer
        self.cells: list[Cell] = []

    def __enter__(self) -> list[Cell]:
        self._original = original = Backend.__dict__["run"]
        cells, tracer = self.cells, self.tracer

        def timed_run(backend, schedule, **kwargs):
            if tracer is not None:
                tracer.new_cell()
            start = time.perf_counter()
            result = original(backend, schedule, **kwargs)
            host_s = time.perf_counter() - start
            cells.append(Cell(
                f"{len(cells):04d}:{result.backend}:{result.algorithm}",
                host_s,
                {"n_steps": result.n_steps, "total_time": result.total_time},
            ))
            return result

        Backend.run = timed_run
        return cells

    def __exit__(self, *exc) -> None:
        Backend.run = self._original


def _workloads(tiny: bool):
    return PAPER_WORKLOADS[:1] if tiny else PAPER_WORKLOADS


class Workload:
    """Base: a named grid with a deterministic pass over it."""

    name = ""
    why = ""
    #: Percentile reported as ``cell_tail_ms``: the highest one that leaves
    #: at least ten cells beyond it once ``min_passes`` passes have run.
    tail_pct = 90

    def grid(self, tiny: bool) -> dict:
        raise NotImplementedError

    def inputs(self, seed: int, tiny: bool):
        """What the seed decides; ``None`` for the fixed paper grids."""
        return None

    def reference_inputs(self, tiny: bool) -> list:
        """Inputs whose passes together cover every seed's cells."""
        return [self.inputs(0, tiny)]

    def run_pass(self, inputs, tiny: bool, tracer=None) -> list[Cell]:
        raise NotImplementedError

    def min_passes(self, timed_cells_per_pass: int) -> int:
        beyond = timed_cells_per_pass * (100 - self.tail_pct) / 100
        return max(3, math.ceil(10 / beyond))


class Fig6Sim(Workload):
    """Fig 6 on the simulated optical backend (RWA + claim validation)."""

    name = "fig6-sim"
    why = ("run_fig6 simulated at N=1024: optical lowering, mostly claim "
           "validation and RWA; no electrical solver, no verifier")
    tail_pct = 90

    def grid(self, tiny: bool) -> dict:
        return {
            "entry": "run_fig6", "mode": "simulated",
            "nodes": (64,) if tiny else (1024,),
            "workloads": [wl.name for wl in _workloads(tiny)],
        }

    def run_pass(self, inputs, tiny: bool, tracer=None) -> list[Cell]:
        grid = self.grid(tiny)
        with RunTimer(tracer) as cells:
            run_fig6(mode="simulated", nodes=grid["nodes"],
                     workloads=_workloads(tiny))
        return cells


class Report(Workload):
    """``wrht-repro report`` in analytical mode, Fig 7's grid cut at N=512."""

    name = "report"
    why = ("table1 and fig4-7 analytical as wrht-repro report runs them, "
           "fig7 at N<=512 on two models: the electrical max-min solver dominates")
    tail_pct = 98

    def grid(self, tiny: bool) -> dict:
        if tiny:
            return {"table1": (64, 8), "fig4": {"n_nodes": 64, "group_sizes": (5, 9)},
                    "fig5": {"n_nodes": 64, "wavelengths": (4, 8)},
                    "fig6": {"nodes": (64,)}, "fig7": {"nodes": (16,)},
                    "workloads": [wl.name for wl in _workloads(tiny)]}
        # Fig 7 keeps the two smallest models: the fat-tree solve depends on
        # the flows, not the payload, so the other two repeat its work.
        return {"table1": (1024, DEFAULT_WAVELENGTHS), "fig4": {}, "fig5": {},
                "fig6": {}, "fig7": {"nodes": (128, 256, 512),
                                     "workloads": PAPER_WORKLOADS[2:]},
                "workloads": [wl.name for wl in _workloads(tiny)]}

    def run_pass(self, inputs, tiny: bool, tracer=None) -> list[Cell]:
        grid = self.grid(tiny)
        n, w = grid["table1"]
        table1 = Cell("table1", None, dict(run_table1(n_nodes=n, n_wavelengths=w)))
        with RunTimer(tracer) as cells:
            for runner, key in ((run_fig4, "fig4"), (run_fig5, "fig5"),
                                (run_fig6, "fig6"), (run_fig7, "fig7")):
                kwargs = {"workloads": _workloads(tiny), **grid[key]}
                runner(mode="analytical", interpretation=INTERPRETATION, **kwargs)
        return [table1, *cells]


def _lineup() -> list[tuple[str, str, dict]]:
    """(label, builder, kwargs): every registered builder, SCRing at q=1, 4."""
    out = []
    for algo in collectives_registry.available_algorithms():
        if algo == "scring":
            out += [("scring-q1", algo, {"pipeline": 1}),
                    ("scring-q4", algo, {"pipeline": 4})]
        else:
            out.append((algo, algo, {}))
    return out


def _builder_kwargs(algo: str, n: int, extra: dict) -> dict:
    kwargs = dict(extra, materialize=False)
    if algo == "wrht":
        kwargs["n_wavelengths"] = DEFAULT_WAVELENGTHS
    elif algo == "hring":
        kwargs["m"] = min(HRING_M, n)
    return kwargs


class BakeoffVerified(Workload):
    """Every collective priced on three backends, each plan verified."""

    name = "bakeoff-verified"
    why = ("all 9 bake-off builders on optical (t_tune 0 and 10us), "
           "electrical and analytic, every plan through Backend.verify, plus "
           "the canonical fault sweep")
    tail_pct = 95

    def grid(self, tiny: bool) -> dict:
        return {
            "lineup": [label for label, _, _ in _lineup()],
            # (backend, nodes, payload elems, t_tune values)
            "backends": [
                ("optical", (16,) if tiny else (64,),
                 (100_000,) if tiny else (100_000, 25_000_000), (0.0, 10e-6)),
                ("electrical", (16,) if tiny else (64,), (25_000_000,), (0.0,)),
                ("analytic", (16,) if tiny else (64, 256),
                 (100_000, 25_000_000), (0.0,)),
            ],
            "fault_sweep": {"n_nodes": 16, "n_wavelengths": 8,
                            "backends": faultsweep.FAULT_BACKENDS},
        }

    def run_pass(self, inputs, tiny: bool, tracer=None) -> list[Cell]:
        grid = self.grid(tiny)
        cells = []
        for backend_name, nodes, payloads, tunes in grid["backends"]:
            for n in nodes:
                for elems in payloads:
                    for t_tune in tunes:
                        for label, algo, extra in _lineup():
                            if backend_name == "analytic" and algo == "dbtree":
                                continue  # no closed form: rejected by design
                            key = (f"{label}/{backend_name}/N{n}/"
                                   f"E{elems}/tt{t_tune:g}")
                            cells.append(_timed(tracer, key, _bakeoff_cell,
                                                backend_name, algo, extra, n,
                                                elems, t_tune))
        sweep = grid["fault_sweep"]
        scenarios = faultsweep.default_fault_scenarios(
            sweep["n_nodes"], sweep["n_wavelengths"])
        for scenario, faults in scenarios.items():
            for backend_name in sweep["backends"]:
                cells.append(_timed(
                    tracer, f"fault/{scenario}/{backend_name}", _fault_cell,
                    scenario, faults, backend_name, sweep))
        return cells


def _timed(tracer, key: str, fn, *args) -> Cell:
    """Run one cell, timing it; an exception becomes a failed cell."""
    if tracer is not None:
        tracer.new_cell()
    start = time.perf_counter()
    try:
        values, found = fn(*args)
    except Exception as exc:  # a cell that raises is counted, not fatal
        return Cell(key, time.perf_counter() - start, raised=repr(exc))
    return Cell(key, time.perf_counter() - start, values, found)


def _bakeoff_cell(backend_name, algo, extra, n, elems, t_tune):
    backend = get_backend(backend_name, n, DEFAULT_WAVELENGTHS, INTERPRETATION,
                          t_tune=t_tune)
    schedule = collectives_registry.build_schedule(
        algo, n, elems, **_builder_kwargs(algo, n, extra))
    plan = backend.lower(schedule, bytes_per_elem=BYTES_PER_ELEM)
    found: tuple[str, ...] = ()
    try:
        backend.verify(plan, schedule)
    except PlanVerificationError as exc:
        found = tuple(sorted({f.rule_id for f in errors(exc.findings)}))
    result = backend.execute(plan)
    values = {"n_steps": result.n_steps, "total_time": result.total_time}
    decision = plan.meta.get("reconfig", {}).get("decision")
    if decision is not None:
        values["reconfig"] = decision["chosen"]
    return values, found


def _fault_cell(scenario, faults, backend_name, sweep):
    result = faultsweep.run_fault_scenario(
        scenario, faults, n_nodes=sweep["n_nodes"],
        n_wavelengths=sweep["n_wavelengths"], backend=backend_name)
    values = {"healthy_time": result.healthy_time,
              "degraded_time": result.degraded_time,
              "n_survivors": result.n_survivors,
              "n_errors": result.n_errors}
    return values, ("faultsweep-error",) if result.n_errors else ()


class LiveFaults(Workload):
    """The event-driven simulator with a seeded mid-flight dead wavelength."""

    name = "live-faults"
    why = ("LiveOpticalSimulation on Ring/RD/Swing/WRHT: healthy with "
           "tuning overlap, a seeded mid-flight DeadWavelength, and repair")
    tail_pct = 90
    algos = ("ring", "rd", "swing", "wrht")
    n_wavelengths = 8
    #: The fault lands at k/8 of the healthy total, k drawn from 1..7.
    fault_eighths = 8

    def grid(self, tiny: bool) -> dict:
        return {"algos": self.algos, "nodes": (16,) if tiny else (32, 64),
                "n_wavelengths": self.n_wavelengths, "t_tune": 10e-6,
                "elems": 1_000_000, "fault_eighths": self.fault_eighths}

    def inputs(self, seed: int, tiny: bool) -> dict:
        """(dead wavelength, eighths) per (algo, N), drawn from the seed."""
        rng = SeededRng(seed, self.name)
        picks = {}
        for algo in self.algos:
            for n in self.grid(tiny)["nodes"]:
                sub = rng.fork(f"{algo}/N{n}")
                picks[(algo, n)] = (sub.integers(0, self.n_wavelengths),
                                    sub.integers(1, self.fault_eighths))
        return picks

    def reference_inputs(self, tiny: bool) -> list:
        cells = [(algo, n) for algo in self.algos
                 for n in self.grid(tiny)["nodes"]]
        return [{cell: (wl, k) for cell in cells}
                for wl in range(self.n_wavelengths)
                for k in range(1, self.fault_eighths)]

    def run_pass(self, inputs, tiny: bool, tracer=None) -> list[Cell]:
        grid = self.grid(tiny)
        cells = []
        for algo in self.algos:
            for n in grid["nodes"]:
                kwargs = {"n_wavelengths": self.n_wavelengths} if algo == "wrht" else {}
                schedule = collectives_registry.build_schedule(
                    algo, n, grid["elems"], materialize=True, **kwargs)
                config = OpticalSystemConfig(
                    n_nodes=n, n_wavelengths=self.n_wavelengths,
                    t_tune=grid["t_tune"])
                healthy = _timed(tracer, f"{algo}/N{n}/healthy", _live_cell,
                                 config, schedule, (), False)
                cells.append(healthy)
                if healthy.raised:
                    continue
                wl, k = inputs[(algo, n)]
                at = healthy.values["total_time"] * k / self.fault_eighths
                events = (FaultEvent(at, DeadWavelength(wl)),)
                for mode, repair in (("fault", False), ("repair", True)):
                    cells.append(_timed(
                        tracer, f"{algo}/N{n}/{mode}/wl{wl}/k{k}", _live_cell,
                        config, schedule, events, repair))
        return cells


def _live_cell(config, schedule, events, repair):
    result = LiveOpticalSimulation(
        config, fault_events=events, repair=repair).run(
            schedule, bytes_per_elem=BYTES_PER_ELEM)
    return {"n_steps": result.n_steps, "total_time": result.total_time,
            "n_events": result.n_events, "n_retries": result.n_retries}, ()


WORKLOADS = {w.name: w for w in (Fig6Sim(), Report(), BakeoffVerified(), LiveFaults())}
