"""In-memory span tracing around the program's layer boundaries.

The benchmark never edits the program: :class:`LayerTracer` replaces each
traced function at the name its caller looks it up by (a module global or
a class attribute) with a wrapper that records a span — name, start, end,
parent span, cell id — plus the counts read off its arguments or result.
:meth:`LayerTracer.uninstall` puts every original back.

A layer's self time is its span's duration minus its direct child spans;
the self times of all spans plus the time no span covers (``runner.self``)
add up to the pass wall time exactly.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from pathlib import Path

import repro.backend.analytic as backend_analytic
import repro.backend.base as backend_base
import repro.backend.electrical as backend_electrical
import repro.backend.optical as backend_optical
import repro.check.engine as check_engine
import repro.collectives.registry as collectives_registry
import repro.electrical.flows as electrical_flows
import repro.electrical.network as electrical_network
import repro.optical.circuit as optical_circuit
import repro.optical.livesim as optical_livesim
import repro.optical.network as optical_network
import repro.optical.reconfig as optical_reconfig
import repro.runner.experiments as runner_experiments
import repro.runner.faultsweep as runner_faultsweep
from repro.check.engine import PlanVerificationError
from repro.check.findings import errors


def _count_flows(tracer, args, kwargs, out):
    tracer.add("electrical.flows.flows", len(args[1]))


def _count_claims(tracer, args, kwargs, out):
    tracer.add("optical.circuit.claims", len(out))


def _count_rounds(tracer, args, kwargs, out):
    tracer.add("optical.rwa.rounds", len(out))


def _count_hold(tracer, args, kwargs, out):
    decision = out.meta.get("reconfig", {}).get("decision")
    if decision is not None and decision["chosen"] == "hold":
        tracer.add("optical.reconfig.hold", 1)


def _count_findings(tracer, args, kwargs, out):
    tracer.add("check.findings.error", len(errors(out)))


def _count_live(tracer, args, kwargs, out):
    tracer.add("sim.events", out.n_events)
    tracer.add("sim.retries", out.n_retries)
    tracer.add("sim.interrupted", out.n_interrupted)


#: (owner, attribute, span name or None for count-only, counter).
#: Each owner is where the caller looks the function up: a function
#: imported with ``from x import f`` is patched in the importing module.
TARGETS = (
    (electrical_flows, "max_min_rates", "electrical.flows.max_min_rates", None),
    (electrical_flows.FluidSimulation, "run", "electrical.flows.fluid_run",
     _count_flows),
    (electrical_network.ElectricalNetwork, "lower",
     "electrical.network.lower_self", None),
    (optical_network, "validate_no_conflicts",
     "optical.circuit.validate_no_conflicts", None),
    (optical_circuit, "circuit_claims", None, _count_claims),
    (optical_network, "plan_rounds", "optical.rwa.plan_rounds", _count_rounds),
    (optical_network, "validate_node_constraints",
     "optical.node.validate_node_constraints", None),
    (optical_network.OpticalRingNetwork, "lower", "optical.network.lower_self",
     None),
    (optical_network, "repair_rounds", "optical.repair.repair_rounds", None),
    (optical_reconfig, "choose_plan", "optical.reconfig.choose_plan",
     _count_hold),
    (check_engine, "verify_plan", "check.verify_plan", _count_findings),
    (runner_faultsweep, "verify_plan", "check.verify_plan", _count_findings),
    (optical_livesim.LiveOpticalSimulation, "run", "optical.livesim.run",
     _count_live),
    (collectives_registry, "build_schedule", "collectives.build_schedule", None),
    (runner_experiments, "build_schedule", "collectives.build_schedule", None),
    (backend_optical.OpticalBackend, "lower", "backend.optical.lower", None),
    (backend_electrical.ElectricalBackend, "lower", "backend.electrical.lower",
     None),
    (backend_analytic.AnalyticBackend, "lower", "backend.analytic.lower", None),
    (backend_optical.OpticalBackend, "execute", "backend.execute", None),
    (backend_electrical.ElectricalBackend, "execute", "backend.execute", None),
    (backend_analytic.AnalyticBackend, "execute", "backend.execute", None),
    (backend_base.Backend, "verify", "backend.verify", None),
    (backend_optical.OpticalBackend, "verify", "backend.verify", None),
    (runner_faultsweep, "run_fault_scenario", "faults.run_fault_scenario", None),
)

#: Layer spans whose call counts are reported as ``<span>.calls``.
CALL_COUNTED = (
    "electrical.flows.max_min_rates",
    "optical.circuit.validate_no_conflicts",
    "optical.rwa.plan_rounds",
    "check.verify_plan",
    "optical.livesim.run",
    "optical.repair.repair_rounds",
    "collectives.build_schedule",
    "faults.run_fault_scenario",
)


class LayerTracer:
    """Spans and counts for one traced pass at a time, kept in memory."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent, cell]
        self.counts: dict[str, int] = defaultdict(int)
        self.cell = 0
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------
    def add(self, name: str, n: int) -> None:
        self.counts[name] += n

    def new_cell(self) -> None:
        self.cell += 1

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()
        self._stack.clear()

    def _wrap(self, span: str | None, fn, counter):
        tracer = self

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            if span is None:
                out = fn(*args, **kwargs)
                counter(tracer, args, kwargs, out)
                return out
            parent = tracer._stack[-1] if tracer._stack else -1
            index = len(tracer.spans)
            record = [span, time.perf_counter(), 0.0, parent, tracer.cell]
            tracer.spans.append(record)
            tracer._stack.append(index)
            try:
                out = fn(*args, **kwargs)
            except PlanVerificationError as exc:
                if span == "check.verify_plan":
                    tracer.add("check.findings.error", len(errors(exc.findings)))
                raise
            finally:
                record[2] = time.perf_counter()
                tracer._stack.pop()
            if counter is not None:
                counter(tracer, args, kwargs, out)
            return out

        return wrapped

    def install(self) -> None:
        for owner, attr, span, counter in TARGETS:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(span, original, counter))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- summaries -------------------------------------------------------
    def self_times(self) -> dict[str, float]:
        """Self seconds per span name (duration minus direct children)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            totals[name] += (end - start) - child[i]
        return dict(totals)

    def top_level_s(self) -> float:
        """Seconds covered by spans with no parent."""
        return sum(end - start for _, start, end, parent, _ in self.spans
                   if parent < 0)

    def calls(self) -> dict[str, int]:
        out: dict[str, int] = defaultdict(int)
        for record in self.spans:
            out[record[0]] += 1
        return dict(out)

    def dump(self, path: Path, summary: dict) -> None:
        """Write one pass's spans and the run's layer summary as JSON."""
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = self.spans[0][1] if self.spans else 0.0
        spans = [
            [name, round(start - t0, 9), round(end - t0, 9), parent, cell]
            for name, start, end, parent, cell in self.spans
        ]
        path.write_text(json.dumps(
            {"fields": ["name", "start_s", "end_s", "parent", "cell"],
             "spans": spans, "summary": summary},
        ) + "\n")
