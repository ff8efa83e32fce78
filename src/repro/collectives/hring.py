"""Hierarchical-Ring (H-Ring) All-reduce (Ueno & Yokota [28]).

Three phases over groups of ``m`` contiguous nodes:

1. **Intra-group ring All-reduce** — each group runs a full ring All-reduce
   on its members (reduce-scatter + all-gather over ``g`` chunks),
   ``2(max_g − 1)`` bulk-synchronous steps with every group progressing
   concurrently. Afterwards every member holds its group's sum.
2. **Inter-group ring All-reduce** — the group leaders (first member of
   each group) run a ring All-reduce over ``G = ⌈N/m⌉`` leaders,
   ``2(G − 1)`` steps. Leaders now hold the global sum.
3. **Leader broadcast** — each leader copies the full result to its group
   members in one step (``⌊m/2⌋`` wavelengths on the optical ring).

Total: ``2(m−1) + 2(G−1) + 1 = 2m + 2N/m − 3`` steps for ``m | N`` — exactly
the Table 1 closed form for ``⌈m/w⌉ = 1`` (e.g. N=1024, m=5 → 417 steps).
When wavelengths are scarce (``⌈m/w⌉ > 1``) the optical executor serializes
intra-group steps into rounds; the closed form in
:func:`repro.core.steps.hring_steps` accounts for that case analytically.
"""

from __future__ import annotations

import math
from functools import partial

from repro.collectives.base import (
    CommStep,
    Schedule,
    Transfer,
    singleton_schedule,
)
from repro.collectives.ring import chunk_bounds
from repro.core.grouping import partition_ring
from repro.util.validation import check_positive_int


def _intra_steps(groups, total: int) -> list[CommStep]:
    """Concurrent per-group ring All-reduce steps (phases padded to max g)."""
    max_g = max(len(g.members) for g in groups)
    if max_g == 1:
        return []
    per_group_bounds = {g.members: chunk_bounds(total, len(g.members)) for g in groups}
    steps: list[CommStep] = []
    for s in range(max_g - 1):  # reduce-scatter
        transfers = []
        for g in groups:
            members, n = g.members, len(g.members)
            if s >= n - 1:
                continue
            bounds = per_group_bounds[members]
            for i in range(n):
                lo, hi = bounds[(i - s) % n]
                transfers.append(
                    Transfer(src=members[i], dst=members[(i + 1) % n], lo=lo, hi=hi, op="sum")
                )
        steps.append(CommStep(tuple(transfers), stage="reduce", level=1))
    for s in range(max_g - 1):  # all-gather
        transfers = []
        for g in groups:
            members, n = g.members, len(g.members)
            if s >= n - 1:
                continue
            bounds = per_group_bounds[members]
            for i in range(n):
                lo, hi = bounds[(i + 1 - s) % n]
                transfers.append(
                    Transfer(src=members[i], dst=members[(i + 1) % n], lo=lo, hi=hi, op="copy")
                )
        steps.append(CommStep(tuple(transfers), stage="broadcast", level=1))
    return steps


def _inter_steps(leaders: list[int], total: int) -> list[CommStep]:
    """Ring All-reduce over the group leaders."""
    n = len(leaders)
    if n == 1:
        return []
    bounds = chunk_bounds(total, n)
    steps: list[CommStep] = []
    for s in range(n - 1):
        transfers = tuple(
            Transfer(
                src=leaders[i],
                dst=leaders[(i + 1) % n],
                lo=bounds[(i - s) % n][0],
                hi=bounds[(i - s) % n][1],
                op="sum",
            )
            for i in range(n)
        )
        steps.append(CommStep(transfers, stage="reduce", level=2))
    for s in range(n - 1):
        transfers = tuple(
            Transfer(
                src=leaders[i],
                dst=leaders[(i + 1) % n],
                lo=bounds[(i + 1 - s) % n][0],
                hi=bounds[(i + 1 - s) % n][1],
                op="copy",
            )
            for i in range(n)
        )
        steps.append(CommStep(transfers, stage="broadcast", level=2))
    return steps


def _leader_broadcast(groups, total: int) -> CommStep | None:
    """Leaders push the global sum to their members (one step)."""
    transfers = []
    for g in groups:
        leader = g.members[0]
        for member in g.members[1:]:
            transfers.append(Transfer(src=leader, dst=member, lo=0, hi=total, op="copy"))
    if not transfers:
        return None
    return CommStep(tuple(transfers), stage="broadcast", level=1)


def _profile(groups, total: int) -> list[tuple[CommStep, int]]:
    """Uniform-size timing profile (see ring.py for the approximation note)."""
    max_g = max(len(g.members) for g in groups)
    n_groups = len(groups)
    profile: list[tuple[CommStep, int]] = []
    if max_g > 1:
        intra_chunk = min(math.ceil(total / max_g), total)
        rs = []
        for g in groups:
            members, gn = g.members, len(g.members)
            if gn == 1:
                continue
            for i in range(gn):
                rs.append(Transfer(members[i], members[(i + 1) % gn], 0, intra_chunk, "sum"))
        profile.append((CommStep(tuple(rs), stage="reduce", level=1), max_g - 1))
        ag = tuple(
            Transfer(t.src, t.dst, t.lo, t.hi, "copy") for t in rs
        )
        profile.append((CommStep(ag, stage="broadcast", level=1), max_g - 1))
    if n_groups > 1:
        leaders = [g.members[0] for g in groups]
        inter_chunk = min(math.ceil(total / n_groups), total)
        rs = tuple(
            Transfer(leaders[i], leaders[(i + 1) % n_groups], 0, inter_chunk, "sum")
            for i in range(n_groups)
        )
        profile.append((CommStep(rs, stage="reduce", level=2), n_groups - 1))
        ag = tuple(Transfer(t.src, t.dst, t.lo, t.hi, "copy") for t in rs)
        profile.append((CommStep(ag, stage="broadcast", level=2), n_groups - 1))
        bcast = _leader_broadcast(groups, total)
        if bcast is not None:
            profile.append((bcast, 1))
    return profile


def build_hring_schedule(
    n_nodes: int,
    total_elems: int,
    m: int | None = None,
    materialize: bool | None = None,
) -> Schedule:
    """Build the H-Ring All-reduce schedule.

    Args:
        n_nodes: Participants N >= 1.
        total_elems: Gradient vector length.
        m: Intra-group size; defaults to the paper's ``min(5, N)``.
        materialize: Force/skip exact steps; ``None`` materializes for
            N <= 128.

    Returns:
        A :class:`Schedule`; ``meta["n_groups"]`` records ``⌈N/m⌉``.
    """
    check_positive_int("n_nodes", n_nodes)
    check_positive_int("total_elems", total_elems)
    if m is None:
        m = min(5, n_nodes)
    check_positive_int("m", m)
    if n_nodes == 1:
        return singleton_schedule("hring", total_elems)
    if m > n_nodes:
        raise ValueError(f"group size m={m} exceeds n_nodes={n_nodes}")
    if materialize is None:
        materialize = n_nodes <= 128

    groups = partition_ring(list(range(n_nodes)), m)
    steps: list[CommStep] | None = None
    if materialize:
        steps = list(_intra_steps(groups, total_elems))
        leaders = [g.members[0] for g in groups]
        inter = _inter_steps(leaders, total_elems)
        steps.extend(inter)
        if inter:  # members only lack the global sum if an inter phase ran
            bcast = _leader_broadcast(groups, total_elems)
            if bcast is not None:
                steps.append(bcast)
    return Schedule(
        algorithm="hring",
        n_nodes=n_nodes,
        total_elems=total_elems,
        steps=steps,
        timing_profile=partial(_profile, groups, total_elems),
        meta={
            "profile_exact": False,
            "n_groups": len(groups),
            "m": m,
        },
    )
