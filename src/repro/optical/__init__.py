"""Optical ring interconnect substrate (TeraRack-like, Sec 3.2 / Table 2).

A circuit-switched WDM ring: N nodes joined by unidirectional fiber
segments in both directions (clockwise and counter-clockwise, optionally
multiple fibers per direction), ``w`` wavelengths per fiber at 40 Gbit/s
each, micro-ring resonators reconfigured between communication steps
(25 µs) and O/E/O conversion charged per 72-byte packet (497 fs).

Modules:

- :mod:`~repro.optical.config` — Table 2 parameters and the calibrated /
  strict line-rate interpretations (DESIGN.md §6).
- :mod:`~repro.optical.topology` — ring segments and directional paths.
- :mod:`~repro.optical.node` — TeraRack node structure and per-round
  transceiver constraints.
- :mod:`~repro.optical.rwa` — routing and wavelength assignment
  (First-Fit / Random-Fit) over integer segment bitmasks, with exact
  segment-conflict checking.
- :mod:`~repro.optical.reconfig` — MRR wavelength-tuning cost model
  and the tuning/transmission overlap planning pass (held/blocked/free
  claim classification, the reconfigure-vs-hold estimator); disabled —
  bit-identical — unless the config sets ``t_tune``.
- :mod:`~repro.optical.repair` — incremental DSATUR repair: splice a
  fault/constraint delta into a previously solved coloring instead of
  recoloring from scratch (untouched claims pinned, validated, falls back
  past 50% affected).
- :mod:`~repro.backend.plancache` — bounded LRU of priced step plans shared
  across executors and ``execute()`` calls (cross-run sweeps reuse RWA
  results bit-exactly).
- :mod:`~repro.optical.circuit` — established circuits and conflict
  validation helpers used by the tests.
- :mod:`~repro.optical.phy` — per-path insertion-loss/crosstalk checks.
- :mod:`~repro.optical.network` — the step-synchronous executor that prices
  a :class:`~repro.collectives.base.Schedule` on this substrate.
"""

from repro.optical.config import OpticalSystemConfig
from repro.optical.topology import Direction, RingTopology, Route
from repro.optical.rwa import (
    AssignmentResult,
    RwaInfeasibleError,
    assign_wavelengths,
    plan_rounds,
)
from repro.backend.plancache import (
    CachedRound,
    PlanCache,
    PlanCacheCounters,
    default_plan_cache,
)
from repro.optical.reconfig import (
    ReconfigModel,
    apply_reconfig,
    choose_plan,
    exposed_tuning,
    plan_total_time,
    round_claims,
    split_tuning,
)
from repro.optical.repair import (
    RwaContext,
    RwaSolution,
    capture_solution,
    repair_rounds,
    validate_rounds,
)
from repro.optical.circuit import Circuit, validate_no_conflicts
from repro.optical.livesim import LiveOpticalSimulation, LiveRunResult
from repro.optical.network import OpticalRingNetwork, OpticalRunResult, StepTiming
from repro.optical.node import TeraRackNode, validate_node_constraints
from repro.optical.phy import path_feasible, validate_route_phy
from repro.optical.torus import TorusOpticalNetwork, TorusRunResult, TorusTopology

__all__ = [
    "AssignmentResult",
    "CachedRound",
    "Circuit",
    "Direction",
    "LiveOpticalSimulation",
    "LiveRunResult",
    "OpticalRingNetwork",
    "OpticalRunResult",
    "OpticalSystemConfig",
    "PlanCache",
    "PlanCacheCounters",
    "ReconfigModel",
    "RingTopology",
    "Route",
    "RwaContext",
    "RwaInfeasibleError",
    "RwaSolution",
    "StepTiming",
    "TeraRackNode",
    "TorusOpticalNetwork",
    "TorusRunResult",
    "TorusTopology",
    "apply_reconfig",
    "assign_wavelengths",
    "capture_solution",
    "choose_plan",
    "default_plan_cache",
    "exposed_tuning",
    "path_feasible",
    "plan_rounds",
    "plan_total_time",
    "repair_rounds",
    "round_claims",
    "split_tuning",
    "validate_no_conflicts",
    "validate_node_constraints",
    "validate_rounds",
    "validate_route_phy",
]
