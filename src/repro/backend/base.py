"""The backend contract: one schedule-lowering pipeline for every executor.

Every way of pricing a :class:`~repro.collectives.base.Schedule` — the
optical circuit executor, the electrical fat-tree, the closed-form
analytic model — implements the same two-stage contract:

``lower(schedule) -> LoweredPlan``
    Everything pattern-dependent: pattern extraction over the schedule's
    timing profile, routing / RWA / flow construction, and pricing of each
    distinct pattern. Lowering is where the cross-run
    :class:`~repro.backend.plancache.PlanCache` sits, so *every* backend
    gets warm-replay for free and the hit/miss/eviction counters mean the
    same thing everywhere.

``execute(plan) -> ExecutionResult``
    Deterministic timeline folding: walk the lowered entries in order,
    accumulate the clock, emit step records and trace events. Execution
    performs no routing and no cache lookups — replaying a plan is
    bit-identical to executing it the first time.

``run(schedule)`` composes the two and is what the experiment harness
calls. The split matters because lowering is the expensive, cacheable,
config-keyed half while execution is cheap and stateless: a lowered plan
can be executed many times, serialized for inspection, or fed to analyses
(e.g. :mod:`repro.analysis.energy` prices energy off the same lowered
plans the timing came from, so the two can never disagree).

:class:`ExecutionResult` and its :class:`StepRecord` timeline are plain
serializable data (``to_dict`` survives a JSON round trip unchanged), so
results can cross process boundaries in sweeps and be archived next to
the figures they produced.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Any

from repro.backend.errors import BackendConfigError
from repro.backend.plancache import PlanCacheCounters
from repro.collectives.base import Schedule
from repro.obs.metrics import NULL_METRICS, MetricsRegistry, MetricsSnapshot


@dataclass(frozen=True)
class LoweredStep:
    """One lowered timing-profile entry.

    Attributes:
        stage: Stage label of the representative step.
        count: How many consecutive schedule steps share this pattern.
        n_transfers: Concurrent transfers per step.
        payload: Backend-specific priced summary for one step of this
            pattern (optical: a ``CachedRound`` tuple; electrical: a fluid
            timing summary; analytic: a closed-form step class).
        replay: True when an earlier entry of the *same plan* already
            priced this pattern — executors emit a compact ``step_cached``
            trace event instead of re-tracing every round.
    """

    stage: str
    count: int
    n_transfers: int
    payload: Any
    replay: bool = False


@dataclass
class LoweredPlan:
    """A schedule lowered by one backend: priced patterns, ready to fold.

    Attributes:
        backend: Name of the backend that produced the plan.
        algorithm: Source schedule's algorithm name.
        n_nodes: Source schedule's node count.
        n_steps: Total communication steps the plan covers.
        bytes_per_elem: Element width the pricing used.
        entries: One :class:`LoweredStep` per timing-profile entry, in
            schedule order.
        cache: Plan-cache hit/miss/eviction tallies for this ``lower()``
            call (zeros when the backend bypassed the cache).
        meta: Backend-specific extras (e.g. the analytic backend stores
            its authoritative closed-form total here).
    """

    backend: str
    algorithm: str
    n_nodes: int
    n_steps: int
    bytes_per_elem: float
    entries: tuple[LoweredStep, ...]
    cache: PlanCacheCounters = field(default_factory=PlanCacheCounters)
    meta: dict = field(default_factory=dict)


@dataclass(frozen=True)
class StepRecord:
    """One entry of an execution timeline (a run of identical steps).

    Attributes:
        stage: Stage label of the representative step.
        count: Steps sharing this pattern.
        duration: Seconds per step (all rounds included).
        bytes_per_step: Payload bytes a single step moves.
        n_transfers: Concurrent transfers per step (0 when not modeled).
        rounds: Rounds (reconfigurations) each step needed.
        peak_wavelength: Distinct wavelength indices touched (optical; 0
            elsewhere).
        max_link_share: Largest number of flows sharing one link
            (electrical; 0 elsewhere).
    """

    stage: str
    count: int
    duration: float
    bytes_per_step: float
    n_transfers: int = 0
    rounds: int = 1
    peak_wavelength: int = 0
    max_link_share: int = 0

    def to_dict(self) -> dict:
        """Plain-dict view (JSON-ready)."""
        return {
            "stage": self.stage,
            "count": self.count,
            "duration": self.duration,
            "bytes_per_step": self.bytes_per_step,
            "n_transfers": self.n_transfers,
            "rounds": self.rounds,
            "peak_wavelength": self.peak_wavelength,
            "max_link_share": self.max_link_share,
        }


StepTimeline = tuple[StepRecord, ...]
"""The per-step timeline of an execution: one record per profile entry."""


@dataclass
class ExecutionResult:
    """Uniform result of executing a lowered plan on any backend.

    Attributes:
        backend: Backend name (``"optical"``, ``"electrical"``,
            ``"analytic"``, ...).
        algorithm: Schedule's algorithm name.
        n_steps: Total communication steps.
        total_time: End-to-end communication seconds.
        total_bytes: Payload bytes moved across all steps.
        timeline: Per-profile-entry :class:`StepRecord` sequence.
        events: Trace events the execution emitted, as
            ``(time, category, payload)`` tuples (empty when event
            collection is off).
        cache: Plan-cache tallies inherited from the plan's ``lower()``.
        meta: Backend-specific extras (peak wavelength, congestion, the
            interpretation used, ...).
        metrics: :class:`~repro.obs.metrics.MetricsSnapshot` of the run
            when the backend had metrics enabled, else ``None``.
    """

    backend: str
    algorithm: str
    n_steps: int
    total_time: float
    total_bytes: float
    timeline: StepTimeline = ()
    events: tuple[tuple[float, str, dict], ...] = ()
    cache: PlanCacheCounters = field(default_factory=PlanCacheCounters)
    meta: dict = field(default_factory=dict)
    metrics: MetricsSnapshot | None = None

    @property
    def total_rounds(self) -> int:
        """Reconfiguration rounds across the whole run."""
        return sum(r.rounds * r.count for r in self.timeline)

    @property
    def peak_wavelength(self) -> int:
        """Max wavelengths any round used (0 on non-optical backends)."""
        return max((r.peak_wavelength for r in self.timeline), default=0)

    @property
    def max_link_share(self) -> int:
        """Worst link sharing across steps (0 on non-electrical backends)."""
        return max((r.max_link_share for r in self.timeline), default=0)

    def to_dict(self) -> dict:
        """JSON-ready dict (float-exact through ``json.dumps``/``loads``)."""
        return {
            "backend": self.backend,
            "algorithm": self.algorithm,
            "n_steps": self.n_steps,
            "total_time": self.total_time,
            "total_bytes": self.total_bytes,
            "timeline": [r.to_dict() for r in self.timeline],
            "events": [list(e[:2]) + [dict(e[2])] for e in self.events],
            "cache": self.cache.as_dict(),
            "meta": dict(self.meta),
            "metrics": None if self.metrics is None else self.metrics.to_dict(),
        }


class Backend(abc.ABC):
    """Abstract schedule-pricing backend (the two-stage contract).

    Subclasses set :attr:`name` and implement :meth:`lower` and
    :meth:`execute`; :meth:`run` composes them.

    Backends built with a :class:`~repro.obs.metrics.MetricsRegistry` bind
    it to :attr:`metrics` (the class default is the disabled
    :data:`~repro.obs.metrics.NULL_METRICS`); :meth:`run` profiles the two
    stages under ``backend.<name>.lower`` / ``backend.<name>.execute``
    spans, and adapters attach a snapshot to the result when enabled.
    """

    name: str = "abstract"
    metrics: MetricsRegistry = NULL_METRICS

    @abc.abstractmethod
    def lower(self, schedule: Schedule, *, bytes_per_elem: float = 4.0) -> LoweredPlan:
        """Lower ``schedule``: extract patterns, route/assign, price.

        Goes through the cross-run plan cache where the backend supports
        it; the returned plan carries per-call cache counters.
        """

    @abc.abstractmethod
    def execute(self, plan: LoweredPlan) -> ExecutionResult:
        """Fold a lowered plan into its execution timeline."""

    def verify(self, plan: LoweredPlan, schedule: Schedule | None = None) -> list:
        """Statically verify a lowered plan (see :mod:`repro.check`).

        Runs every applicable plan rule against the plan (and the source
        schedule when given) and raises
        :class:`~repro.check.engine.PlanVerificationError` on any ERROR
        finding. Backends with richer evidence override this to provide a
        fuller context (the optical backend re-derives circuit rounds).

        Returns:
            All findings, including INFO/WARNING, when verification passes.
        """
        from repro.check.engine import verify_plan

        return verify_plan(plan, schedule, raise_on_error=True)

    def run(
        self,
        schedule: Schedule,
        *,
        bytes_per_elem: float = 4.0,
    ) -> ExecutionResult:
        """Lower then execute ``schedule`` (the common one-shot path).

        Args:
            schedule: The schedule to price.
            bytes_per_elem: Element width used by the pricing.
        """
        with self.metrics.span(f"backend.{self.name}.lower"):
            plan = self.lower(schedule, bytes_per_elem=bytes_per_elem)
        with self.metrics.span(f"backend.{self.name}.execute"):
            result = self.execute(plan)
        if self.metrics.enabled:
            # Re-snapshot after the stage spans close so the attached
            # snapshot includes them (execute() snapshots mid-span).
            result.metrics = self.metrics.snapshot()
        return result

    # -- shared entry-point validation ----------------------------------
    def _check_schedule(
        self, schedule: Schedule, bytes_per_elem: float, capacity: int
    ) -> None:
        """Common entry checks, raising typed errors with the backend name."""
        if schedule.n_nodes > capacity:
            raise BackendConfigError(
                f"schedule spans {schedule.n_nodes} nodes but the substrate "
                f"has {capacity}",
                backend=self.name,
            )
        if bytes_per_elem <= 0:
            raise BackendConfigError(
                f"bytes_per_elem must be positive, got {bytes_per_elem!r}",
                backend=self.name,
            )
