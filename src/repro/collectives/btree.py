"""Binary-tree (BT) All-reduce: binomial reduce + binomial broadcast.

The paper's Figure 2(a) baseline [33]: in reduce step ``k`` (1-based) the
ring is viewed in blocks of ``2^k``; the node at offset ``2^(k−1)`` of each
block sends its full partial sum to the block's first node. After
``⌈log₂ N⌉`` steps node 0 holds the global sum; broadcast replays the steps
in reverse with ``copy`` transfers. Every transfer carries the **full**
vector — the step count is logarithmic but each step pays ``d/B``, which is
why BT struggles on large models (Sec 5.5).
"""

from __future__ import annotations

from repro.collectives.base import (
    CommStep,
    Schedule,
    Transfer,
    singleton_schedule,
    steps_and_profile,
)
from repro.util.validation import check_positive_int


def _reduce_step_transfers(n: int, k: int, total: int) -> tuple[Transfer, ...]:
    half = 1 << (k - 1)
    return tuple(
        Transfer(src=j, dst=j - half, lo=0, hi=total, op="sum")
        for j in range(half, n, 1 << k)
    )


def _broadcast_step_transfers(n: int, k: int, total: int) -> tuple[Transfer, ...]:
    half = 1 << (k - 1)
    return tuple(
        Transfer(src=j - half, dst=j, lo=0, hi=total, op="copy")
        for j in range(half, n, 1 << k)
    )


def _steps(n: int, n_levels: int, total: int) -> list[CommStep]:
    steps: list[CommStep] = []
    for k in range(1, n_levels + 1):
        steps.append(CommStep(_reduce_step_transfers(n, k, total), stage="reduce", level=k))
    for k in range(n_levels, 0, -1):
        steps.append(
            CommStep(_broadcast_step_transfers(n, k, total), stage="broadcast", level=k)
        )
    return steps


def build_bt_schedule(n_nodes: int, total_elems: int, materialize: bool | None = None) -> Schedule:
    """Build the binary-tree All-reduce schedule (``2⌈log₂N⌉`` steps).

    Args:
        n_nodes: Participants N >= 1 (any N, not just powers of two).
        total_elems: Gradient vector length.
        materialize: Kept for builder-API symmetry; BT schedules are always
            cheap to materialize (O(N log N) transfers), so exact steps are
            built unless explicitly disabled. Disabled, the steps are built
            only if the timing profile is read.
    """
    check_positive_int("n_nodes", n_nodes)
    check_positive_int("total_elems", total_elems)
    if n_nodes == 1:
        return singleton_schedule("bt", total_elems)
    # ``(n-1).bit_length()`` is ⌈log₂ n⌉ computed exactly in integers —
    # no float log2 that could misround near large powers of two, and no
    # math domain error should the n_nodes guard above ever regress.
    n_levels = (n_nodes - 1).bit_length()
    steps, profile = steps_and_profile(materialize, _steps, n_nodes, n_levels, total_elems)
    return Schedule(
        algorithm="bt",
        n_nodes=n_nodes,
        total_elems=total_elems,
        steps=steps,
        timing_profile=profile,
        meta={"profile_exact": True, "n_levels": n_levels},
    )
