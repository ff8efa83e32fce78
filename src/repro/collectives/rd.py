"""Recursive-doubling (RD) All-reduce with the MPICH non-power-of-two fix-up.

The Sec 5.6 electrical baseline. For ``N = 2^K`` nodes, step ``k`` pairs
node ``q`` with ``q XOR 2^k``; both exchange their full partial sums and
accumulate, so every node holds the global sum after ``K`` steps. For other
``N``, let ``P = 2^⌊log₂N⌋`` and ``r = N − P``: a pre-step folds the first
``2r`` nodes pairwise onto the even members, the power-of-two core runs on
the ``P`` survivors, and a post-step copies results back — ``⌊log₂N⌋ + 2``
steps total (matching :func:`repro.core.steps.rd_steps`).

A second variant, ``"halving_doubling"`` (Rabenseifner's algorithm — the
large-message RD used by MPI implementations), is provided for the ablation
study in ``benchmarks/bench_ablation_rd.py``: a recursive-*halving*
reduce-scatter (exchanged payload halves every step: d/2, d/4, …, d/P)
followed by a recursive-doubling all-gather, ``2·log₂P`` core steps moving
``≈2d`` total instead of ``K·d``. The paper's Fig 7 behaviour matches the
full-vector variant (see EXPERIMENTS.md), which therefore stays the
default.
"""

from __future__ import annotations

from repro.collectives.base import (
    CommStep,
    Schedule,
    Transfer,
    singleton_schedule,
    steps_and_profile,
)
from repro.collectives.ring import chunk_bounds
from repro.util.validation import check_positive_int

VARIANTS = ("doubling", "halving_doubling")


def _participant_label(node: int, r: int) -> int | None:
    """Map a node id to its core-phase rank, or ``None`` if folded away."""
    if node < 2 * r:
        return node // 2 if node % 2 == 0 else None
    return node - r


def _core_node(rank: int, r: int) -> int:
    """Inverse of :func:`_participant_label` for participating ranks."""
    return 2 * rank if rank < r else rank + r


def _halving_doubling_core_steps(
    p: int, r: int, total_elems: int
) -> list[CommStep]:
    """Rabenseifner core: recursive-halving RS + recursive-doubling AG."""
    k_levels = p.bit_length() - 1
    bounds = chunk_bounds(total_elems, p)

    def window_elems(lo_chunk: int, hi_chunk: int) -> tuple[int, int]:
        return bounds[lo_chunk][0], bounds[hi_chunk - 1][1]

    windows = {rank: (0, p) for rank in range(p)}
    steps: list[CommStep] = []
    for k in range(k_levels - 1, -1, -1):  # reduce-scatter, farthest first
        transfers = []
        next_windows = {}
        for rank in range(p):
            peer = rank ^ (1 << k)
            lo, hi = windows[rank]
            mid = (lo + hi) // 2
            if rank & (1 << k):
                keep, send = (mid, hi), (lo, mid)
            else:
                keep, send = (lo, mid), (mid, hi)
            e_lo, e_hi = window_elems(*send)
            transfers.append(
                Transfer(
                    src=_core_node(rank, r), dst=_core_node(peer, r),
                    lo=e_lo, hi=e_hi, op="sum",
                )
            )
            next_windows[rank] = keep
        windows = next_windows
        steps.append(CommStep(tuple(transfers), stage="reduce", level=k + 1))
    for k in range(k_levels):  # all-gather, nearest first
        transfers = []
        next_windows = {}
        for rank in range(p):
            peer = rank ^ (1 << k)
            lo, hi = windows[rank]
            e_lo, e_hi = window_elems(lo, hi)
            transfers.append(
                Transfer(
                    src=_core_node(rank, r), dst=_core_node(peer, r),
                    lo=e_lo, hi=e_hi, op="copy",
                )
            )
            peer_lo, peer_hi = windows[peer]
            next_windows[rank] = (min(lo, peer_lo), max(hi, peer_hi))
        windows = next_windows
        steps.append(CommStep(tuple(transfers), stage="broadcast", level=k + 1))
    return steps


def _steps(p: int, r: int, total_elems: int, variant: str) -> list[CommStep]:
    """Fold pre-step, the ``p``-rank core of ``variant``, fold post-step."""
    floor_log = p.bit_length() - 1
    steps: list[CommStep] = []

    if r > 0:  # pre-step: odd members of the first 2r nodes fold onto evens
        steps.append(
            CommStep(
                tuple(
                    Transfer(src=2 * i + 1, dst=2 * i, lo=0, hi=total_elems, op="sum")
                    for i in range(r)
                ),
                stage="reduce",
            )
        )

    if variant == "doubling":
        nodes = [_core_node(rank, r) for rank in range(p)]
        for k in range(floor_log):  # full-vector exchange among P survivors
            transfers = tuple(
                Transfer(nodes[rank], nodes[rank ^ (1 << k)], 0, total_elems, "sum")
                for rank in range(p)
            )
            steps.append(CommStep(transfers, stage="exchange", level=k + 1))
    elif p >= 2:
        steps.extend(_halving_doubling_core_steps(p, r, total_elems))

    if r > 0:  # post-step: evens hand the result back to the folded odds
        steps.append(
            CommStep(
                tuple(
                    Transfer(src=2 * i, dst=2 * i + 1, lo=0, hi=total_elems, op="copy")
                    for i in range(r)
                ),
                stage="broadcast",
            )
        )
    return steps


def build_rd_schedule(
    n_nodes: int,
    total_elems: int,
    materialize: bool | None = None,
    variant: str = "doubling",
) -> Schedule:
    """Build a recursive-doubling All-reduce schedule.

    Args:
        n_nodes: Participants N >= 1 (any N).
        total_elems: Gradient vector length.
        materialize: API symmetry; RD is always cheap to materialize
            (O(N log N) transfers) so exact steps are built unless disabled.
            Disabled, the steps are built only if the timing profile is
            read.
        variant: ``"doubling"`` (full-vector exchanges, the paper baseline)
            or ``"halving_doubling"`` (Rabenseifner; see module docstring).
    """
    check_positive_int("n_nodes", n_nodes)
    check_positive_int("total_elems", total_elems)
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}, got {variant!r}")
    if n_nodes == 1:
        return singleton_schedule("rd", total_elems)

    floor_log = n_nodes.bit_length() - 1
    p = 1 << floor_log
    r = n_nodes - p
    if p < 2:
        # Unreachable today (n_nodes == 1 returned above, n_nodes < 1 was
        # rejected), but the floor path must never emit an empty core: a
        # regression surfaces as a typed error, not an ill-formed schedule.
        raise ValueError(
            f"recursive doubling needs a >= 2-rank core, got n_nodes={n_nodes}"
        )
    steps, profile = steps_and_profile(materialize, _steps, p, r, total_elems, variant)
    return Schedule(
        algorithm="rd",
        n_nodes=n_nodes,
        total_elems=total_elems,
        steps=steps,
        timing_profile=profile,
        meta={"profile_exact": True, "power_of_two": r == 0, "variant": variant},
    )
