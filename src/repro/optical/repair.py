"""Incremental DSATUR repair of cached RWA solutions.

:func:`repro.optical.rwa.plan_rounds` solves every step from scratch. That
is the right tool at lowering time, but a fault event or a single-transfer
edit invalidates only the transfers whose channel *claims* intersect the
delta — recoloring the whole step pays O(plan) work for an O(delta) change.
This module repairs a previously computed solution instead:

1. **Directly invalidated** transfers are found by intersecting each
   assignment with the delta: a newly dead wavelength, a new per-route ban
   (dead MRR endpoint port), a new quarantine span overlapping the route's
   segment bitmask, or an edited route (fiber-cut detour).
2. The invalidated set is recolored by **DSATUR over the conflict
   subgraph** with every untouched transfer *pinned*: pinned claims are
   seeded into the occupancy the recoloring probes, so the repair can never
   disturb a healthy assignment.
3. When a recolored transfer has no free channel under the pins, its
   pinned conflict neighbours (transfers sharing a segment bit in the same
   direction) are **unpinned transitively** and the recoloring retries —
   the cascade the paper's wavelength-reuse structure makes rare but
   possible.
4. If the cascade grows past ``max_affected_frac`` of the step (or the
   pinning is infeasible outright), repair **falls back to a full
   recolor** via ``plan_rounds`` — counted under ``rwa.repair_fallback``
   so sweeps can see how often the incremental path pays off.

Correctness oracle
------------------

``paranoid=True`` cross-checks every repair against a from-scratch
recolor: the repaired rounds are exhaustively re-validated
(:func:`validate_rounds`) and, when the repaired round count differs from
the scratch solution's, the scratch result is returned instead (counted
under ``rwa.repair_paranoid_divergence``). The live executor and the fault
smoke CLI expose this as ``--paranoid-repair``; the property tests drive
it over random deltas.

Repaired colorings are *valid by construction* but need not be identical
to a from-scratch recolor — repair optimizes for perturbation, scratch for
packing. Both must pass the :mod:`repro.check` plan rules; the test suite
asserts exactly that.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from repro.obs.metrics import NULL_METRICS, MetricsRegistry
from repro.optical.rwa import plan_rounds, route_masks
from repro.optical.topology import Direction, Route
from repro.sim.rng import SeededRng

#: Default cascade bound: past this fraction of invalidated transfers a
#: repair falls back to a full recolor (the subgraph is no longer "small").
DEFAULT_MAX_AFFECTED_FRAC = 0.5


class RepairValidationError(AssertionError):
    """A repaired assignment violated a channel constraint (repair bug)."""


@dataclass(frozen=True)
class RwaContext:
    """The channel-space constraints one RWA solution was computed under.

    Attributes:
        n_segments: Ring size (segments per direction).
        n_wavelengths: Wavelengths per fiber.
        fibers_per_direction: Parallel fibers per direction.
        blocked: Wavelengths unusable everywhere.
        route_blocked: Optional per-route wavelength bans.
        preoccupied: Busy segment bitmask per (direction, wavelength).
    """

    n_segments: int
    n_wavelengths: int
    fibers_per_direction: int = 1
    blocked: frozenset[int] = frozenset()
    route_blocked: tuple[frozenset[int], ...] | None = None
    preoccupied: Mapping[tuple[Direction, int], int] | None = None


@dataclass
class RwaSolution:
    """A solved step: routes, their masks, and the per-round assignments.

    Captured by :class:`~repro.optical.network.OpticalRingNetwork` when
    ``keep_solutions`` is set, and consumed by :func:`repair_rounds` when a
    fault delta arrives.

    Attributes:
        routes: One route per transfer (index identifies the transfer).
        masks: Segment bitmask per route.
        rounds: ``plan_rounds`` output — per round, index -> (fiber, λ).
        ctx: The constraints the solution was computed under.
    """

    routes: list[Route]
    masks: list[int]
    rounds: list[dict[int, tuple[int, int]]]
    ctx: RwaContext = field(default_factory=lambda: RwaContext(1, 1))


def capture_solution(
    routes: Sequence[Route],
    rounds: Sequence[Mapping[int, tuple[int, int]]],
    ctx: RwaContext,
    masks: Sequence[int] | None = None,
) -> RwaSolution:
    """Freeze a ``plan_rounds`` result into a repairable solution."""
    return RwaSolution(
        routes=list(routes),
        masks=list(masks) if masks is not None else route_masks(routes),
        rounds=[dict(r) for r in rounds],
        ctx=ctx,
    )


def affected_indices(
    solution: RwaSolution,
    new_routes: Sequence[Route],
    new_masks: Sequence[int],
    new_ctx: RwaContext,
    edited: frozenset[int] = frozenset(),
) -> set[int]:
    """Transfers whose existing claims intersect the constraint delta.

    A transfer is invalidated when its assigned wavelength became globally
    blocked, its per-route ban set grew to cover the assignment, a new
    quarantine span overlaps its segment mask on the assigned wavelength,
    or its route itself changed (``edited`` — fiber-cut detours). Removed
    constraints never invalidate anything: the old assignment stays
    feasible when the feasible set grows.
    """
    old, new = solution.ctx, new_ctx
    newly_blocked = new.blocked - old.blocked
    pre_old = old.preoccupied or {}
    pre_new = new.preoccupied or {}
    affected = set(edited)
    for rnd in solution.rounds:
        for idx, (_fiber, lam) in rnd.items():
            if idx in affected:
                continue
            if lam in newly_blocked:
                affected.add(idx)
                continue
            bans_old = old.route_blocked[idx] if old.route_blocked else frozenset()
            bans_new = new.route_blocked[idx] if new.route_blocked else frozenset()
            if lam in bans_new - bans_old:
                affected.add(idx)
                continue
            direction = new_routes[idx].direction
            grown = pre_new.get((direction, lam), 0) & ~pre_old.get((direction, lam), 0)
            if grown & new_masks[idx]:
                affected.add(idx)
    return affected


def _allowed_channels(ctx: RwaContext) -> list[tuple[int, int]]:
    """The (fiber, wavelength) probe order, minus globally blocked λ."""
    return [
        (f, lam)
        for f in range(ctx.fibers_per_direction)
        for lam in range(ctx.n_wavelengths)
        if lam not in ctx.blocked
    ]


def _pin_recolor(
    routes: Sequence[Route],
    masks: Sequence[int],
    rounds: Sequence[Mapping[int, tuple[int, int]]],
    affected: set[int],
    ctx: RwaContext,
) -> tuple[list[dict[int, tuple[int, int]]] | None, set[int]]:
    """Recolor ``affected`` with every other transfer pinned in place.

    The color space is (round, fiber, wavelength); probe order prefers a
    transfer's earliest round so the splice perturbs the plan minimally.
    Selection follows DSATUR over the affected conflict subgraph with the
    seed kernel's tie order (saturation, degree, lowest index).

    Returns:
        ``(new_rounds, set())`` on success, or ``(None, stuck)`` where
        ``stuck`` holds the first vertex that had no free channel — the
        caller unpins its neighbours and retries.
    """
    allowed = _allowed_channels(ctx)
    capacity = len(allowed)
    if capacity == 0:
        return None, set(affected)
    n_rounds = len(rounds)
    n_colors = n_rounds * capacity
    chan_index = {chan: c for c, chan in enumerate(allowed)}

    # Occupancy seeded from pinned claims plus quarantine spans.
    busy: list[dict[Direction, list[int]]] = [
        {d: [0] * capacity for d in Direction} for _ in range(n_rounds)
    ]
    pre = ctx.preoccupied or {}
    if pre:
        for c, (_f, lam) in enumerate(allowed):
            for direction in Direction:
                span = pre.get((direction, lam), 0)
                if span:
                    for r in range(n_rounds):
                        busy[r][direction][c] |= span
    for r, rnd in enumerate(rounds):
        for idx, chan in rnd.items():
            if idx in affected:
                continue
            c = chan_index.get(chan)
            if c is None:
                # A pinned claim on a now-banned channel means the delta
                # computation missed it — treat as infeasible pinning.
                return None, {idx}
            busy[r][routes[idx].direction][c] |= masks[idx]

    order = sorted(affected)
    adj: dict[int, list[int]] = {v: [] for v in order}
    for i, v in enumerate(order):
        for u in order[i + 1 :]:
            if routes[v].direction is routes[u].direction and masks[v] & masks[u]:
                adj[v].append(u)
                adj[u].append(v)
    deg = {v: len(adj[v]) for v in order}
    # Bans and pinned occupancy are pre-marked as seen WITHOUT saturation,
    # mirroring dsatur_assign's fault handling: the selection order among
    # the affected vertices depends only on their mutual conflicts.
    seen = {v: bytearray(n_colors) for v in order}
    for v in order:
        bans = ctx.route_blocked[v] if ctx.route_blocked else frozenset()
        mask = masks[v]
        direction = routes[v].direction
        for c, (_f, lam) in enumerate(allowed):
            banned = lam in bans
            for r in range(n_rounds):
                if banned or busy[r][direction][c] & mask:
                    seen[v][r * capacity + c] = 1

    sat = {v: 0 for v in order}
    heap = [(0, -deg[v], v) for v in order]
    heapq.heapify(heap)
    colors: dict[int, int] = {}
    while len(colors) < len(order):
        while True:
            neg_sat, _neg_deg, pick = heapq.heappop(heap)
            if pick not in colors and -neg_sat == sat[pick]:
                break
        row = seen[pick]
        color = next((c for c in range(n_colors) if not row[c]), None)
        if color is None:
            return None, {pick}
        colors[pick] = color
        r, c = divmod(color, capacity)
        busy[r][routes[pick].direction][c] |= masks[pick]
        for peer in adj[pick]:
            if peer in colors or seen[peer][color]:
                continue
            seen[peer][color] = 1
            sat[peer] += 1
            heapq.heappush(heap, (-sat[peer], -deg[peer], peer))

    new_rounds = [
        {idx: chan for idx, chan in rnd.items() if idx not in affected}
        for rnd in rounds
    ]
    for v in order:
        r, c = divmod(colors[v], capacity)
        new_rounds[r][v] = allowed[c]
    return [rnd for rnd in new_rounds if rnd], set()


def repair_rounds(
    solution: RwaSolution,
    new_routes: Sequence[Route],
    new_ctx: RwaContext,
    *,
    edited: frozenset[int] = frozenset(),
    strategy: str = "first_fit",
    rng: SeededRng | None = None,
    max_affected_frac: float = DEFAULT_MAX_AFFECTED_FRAC,
    paranoid: bool = False,
    metrics: MetricsRegistry = NULL_METRICS,
) -> list[dict[int, tuple[int, int]]]:
    """Splice a constraint delta into a cached solution.

    Args:
        solution: The cached assignment (same transfer indexing as
            ``new_routes``).
        new_routes: Routes under the new constraints; differs from
            ``solution.routes`` only at ``edited`` indices.
        new_ctx: The new channel-space constraints.
        edited: Indices whose route (or payload identity) changed and must
            be recolored regardless of claim intersection.
        strategy / rng: Forwarded to the full-recolor fallback only — the
            incremental path itself is deterministic.
        max_affected_frac: Cascade bound; past it the repair falls back to
            a full recolor (``rwa.repair_fallback``).
        paranoid: Cross-check against a from-scratch recolor (see module
            docstring); the oracle behind ``--paranoid-repair``.
        metrics: Records ``rwa.repair_calls``, ``rwa.repair_affected``,
            ``rwa.repair_noop``, ``rwa.repair_cascades``,
            ``rwa.repair_fallback`` and ``rwa.repair_paranoid_divergence``
            plus the wall-clock ``rwa.repair`` span.

    Returns:
        Rounds in ``plan_rounds`` format, covering every index exactly
        once and valid under ``new_ctx``.
    """
    n = len(new_routes)
    if n != len(solution.routes):
        raise ValueError(
            f"solution covers {len(solution.routes)} transfers but the "
            f"delta has {n}"
        )
    metrics.inc("rwa.repair_calls")

    def full_recolor(
        oracle: bool = False,
    ) -> list[dict[int, tuple[int, int]]]:
        # The paranoid oracle's scratch solve is a cross-check, not a
        # fallback: it neither counts rwa.repair_fallback nor distorts the
        # plan_rounds counters of the run under observation.
        if not oracle:
            metrics.inc("rwa.repair_fallback")
        return plan_rounds(
            list(new_routes),
            n_segments=new_ctx.n_segments,
            n_wavelengths=new_ctx.n_wavelengths,
            fibers_per_direction=new_ctx.fibers_per_direction,
            strategy=strategy,
            rng=rng,
            blocked=new_ctx.blocked,
            route_blocked=new_ctx.route_blocked,
            preoccupied=new_ctx.preoccupied,
            metrics=NULL_METRICS if oracle else metrics,
        )

    with metrics.span("rwa.repair"):
        masks = list(solution.masks)
        for i in sorted(edited):
            masks[i] = route_masks([new_routes[i]])[0]
        affected = affected_indices(solution, new_routes, masks, new_ctx, edited)
        metrics.inc("rwa.repair_affected", len(affected))
        if not affected:
            metrics.inc("rwa.repair_noop")
            return [dict(rnd) for rnd in solution.rounds]

        repaired: list[dict[int, tuple[int, int]]] | None = None
        while True:
            if len(affected) > max_affected_frac * n:
                repaired = None
                break
            repaired, stuck = _pin_recolor(
                new_routes, masks, solution.rounds, affected, new_ctx
            )
            if repaired is not None:
                break
            # Unpin the stuck vertices' conflict neighbours and retry —
            # the transitive closure over the bitmask occupancy.
            grown = set(affected)
            for v in stuck:
                direction = new_routes[v].direction
                mask = masks[v]
                for u in range(n):
                    if u not in grown and new_routes[u].direction is direction and masks[u] & mask:
                        grown.add(u)
            if grown == affected:
                repaired = None
                break
            metrics.inc("rwa.repair_cascades")
            affected = grown

        if repaired is None:
            return full_recolor()

    if paranoid:
        validate_rounds(new_routes, masks, repaired, new_ctx)
        scratch = full_recolor(oracle=True)
        if len(scratch) != len(repaired):
            metrics.inc("rwa.repair_paranoid_divergence")
            return scratch
    return repaired


def validate_rounds(
    routes: Sequence[Route],
    masks: Sequence[int],
    rounds: Sequence[Mapping[int, tuple[int, int]]],
    ctx: RwaContext,
) -> None:
    """Exhaustively re-derive every channel constraint on ``rounds``.

    Checks coverage (each index assigned exactly once), segment
    exclusivity per (round, direction, fiber, wavelength), global and
    per-route wavelength bans, and quarantine-span disjointness.

    Raises:
        RepairValidationError: Naming the first violated constraint.
    """
    seen_idx: set[int] = set()
    pre = ctx.preoccupied or {}
    for r, rnd in enumerate(rounds):
        occupancy: dict[tuple[Direction, int, int], int] = {}
        for idx, (fiber, lam) in rnd.items():
            if idx in seen_idx:
                raise RepairValidationError(f"transfer {idx} assigned twice")
            seen_idx.add(idx)
            if lam in ctx.blocked:
                raise RepairValidationError(
                    f"round {r}: transfer {idx} rides blocked wavelength {lam}"
                )
            if ctx.route_blocked is not None and lam in ctx.route_blocked[idx]:
                raise RepairValidationError(
                    f"round {r}: transfer {idx} rides banned wavelength {lam}"
                )
            if fiber >= ctx.fibers_per_direction or lam >= ctx.n_wavelengths:
                raise RepairValidationError(
                    f"round {r}: transfer {idx} on out-of-range channel "
                    f"({fiber}, {lam})"
                )
            direction = routes[idx].direction
            if pre.get((direction, lam), 0) & masks[idx]:
                raise RepairValidationError(
                    f"round {r}: transfer {idx} crosses a quarantined span "
                    f"on wavelength {lam}"
                )
            key = (direction, fiber, lam)
            if occupancy.get(key, 0) & masks[idx]:
                raise RepairValidationError(
                    f"round {r}: channel {key} carries overlapping segments"
                )
            occupancy[key] = occupancy.get(key, 0) | masks[idx]
    missing = set(range(len(routes))) - seen_idx
    if missing:
        raise RepairValidationError(
            f"transfers never assigned: {sorted(missing)}"
        )
