"""WRHT as an executable schedule, built from a :class:`WrhtPlan`.

Reduce stage: one step per hierarchy level; within a level, every group's
non-representative members send their full partial sum to the group's
representative concurrently (``⌊m/2⌋`` wavelengths per group, reused across
groups and ring directions — the optical substrate checks this). When the
plan's all-to-all shortcut is on, the final reduce step is instead a single
all-to-all exchange among the surviving representatives.

Broadcast stage: the reduce levels replayed in reverse with ``copy``
transfers (skipping the last level when the all-to-all already left every
representative with the global sum).

Step count of the generated schedule equals the plan's θ by construction;
the test suite cross-checks it against the Table 1 closed form.
"""

from __future__ import annotations

from repro.collectives.alltoall import build_alltoall_step
from repro.collectives.base import CommStep, Schedule, Transfer, steps_and_profile
from repro.core.planner import WrhtPlan, plan_wrht
from repro.util.validation import check_positive_int


def _collect_step(level, total: int) -> CommStep:
    """All groups of one level collect to their representatives."""
    transfers = []
    for group in level.groups:
        for member in group.non_representatives:
            transfers.append(
                Transfer(src=member, dst=group.representative, lo=0, hi=total, op="sum")
            )
    if not transfers:
        raise ValueError(
            f"level {level.level} has only singleton groups; "
            "the planner should never produce this"
        )
    return CommStep(tuple(transfers), stage="reduce", level=level.level)


def _broadcast_step(level, total: int) -> CommStep:
    """Representatives of one level push the result back to their groups."""
    transfers = []
    for group in level.groups:
        for member in group.non_representatives:
            transfers.append(
                Transfer(src=group.representative, dst=member, lo=0, hi=total, op="copy")
            )
    return CommStep(tuple(transfers), stage="broadcast", level=level.level)


def _steps(plan: WrhtPlan, total_elems: int) -> list[CommStep]:
    """The plan's reduce levels (or all-to-all shortcut), then broadcast."""
    steps: list[CommStep] = []
    reduce_levels = plan.levels
    for level in reduce_levels[:-1]:
        steps.append(_collect_step(level, total_elems))
    last = reduce_levels[-1]
    if plan.alltoall:
        steps.append(
            build_alltoall_step(
                last.population, total_elems, stage="reduce", level=last.level
            )
        )
        bcast_levels = reduce_levels[:-1]
    else:
        steps.append(_collect_step(last, total_elems))
        bcast_levels = reduce_levels
    for level in reversed(bcast_levels):
        steps.append(_broadcast_step(level, total_elems))

    if len(steps) != plan.theta:
        raise AssertionError(
            f"WRHT schedule has {len(steps)} steps but the plan says θ={plan.theta}"
        )
    return steps


def build_wrht_schedule(
    n_nodes: int,
    total_elems: int,
    n_wavelengths: int = 64,
    m: int | None = None,
    plan: WrhtPlan | None = None,
    materialize: bool | None = None,
) -> Schedule:
    """Build the WRHT All-reduce schedule.

    Args:
        n_nodes: Ring size N >= 1.
        total_elems: Gradient vector length.
        n_wavelengths: Available wavelengths (used when planning).
        m: Optional forced group size (forwarded to the planner).
        plan: Pre-computed plan; overrides ``n_wavelengths``/``m``.
        materialize: API symmetry; WRHT schedules are O(N log N) transfers
            and are always materialized unless explicitly disabled.
            Disabled, the steps are built only if the timing profile is
            read.

    Returns:
        A :class:`Schedule` whose ``meta["plan"]`` holds the resolved plan.
    """
    check_positive_int("n_nodes", n_nodes)
    check_positive_int("total_elems", total_elems)
    if n_nodes == 1:
        from repro.collectives.base import singleton_schedule

        return singleton_schedule("wrht", total_elems)
    if plan is None:
        plan = plan_wrht(n_nodes, n_wavelengths, m=m)
    elif plan.n_nodes != n_nodes:
        raise ValueError(f"plan is for N={plan.n_nodes}, schedule for N={n_nodes}")

    steps, profile = steps_and_profile(materialize, _steps, plan, total_elems)
    return Schedule(
        algorithm="wrht",
        n_nodes=n_nodes,
        total_elems=total_elems,
        steps=steps,
        timing_profile=profile,
        meta={"profile_exact": True, "plan": plan},
    )
