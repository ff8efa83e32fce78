"""Double binary tree (DBTree) All-reduce — the NCCL algorithm of [25].

The paper's related work cites Sanders/Speck/Träff's two-tree construction
as implemented in NCCL: run *two* binary-tree All-reduces concurrently,
each over half the gradient, with the node roles permuted between the
trees so no node is an interior (bandwidth-heavy) vertex in both. Step
count stays BT's ``2⌈log₂N⌉``, but each step's per-link payload halves —
DBTree repairs exactly the full-``d``-per-step weakness that makes BT the
worst baseline on the paper's large models, while still paying
logarithmically many reconfigurations.

Construction used here: tree A is the binomial tree over ranks as in
:mod:`repro.collectives.btree`, operating on the lower half of the vector;
tree B applies the rank rotation ``σ(i) = (i + ⌈N/2⌉) mod N`` to the same
structure and operates on the upper half. σ maps A's root (rank 0) to a
mid-ring rank, so A-interior nodes become B-leaves and the send load per
node per step is at most one transfer per tree, each of ``d/2``.
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


def _tree_steps(n: int, lo: int, hi: int, rotate: int) -> list[list[Transfer]]:
    """Binomial reduce+broadcast transfers over ``[lo, hi)`` with rank ids
    rotated by ``rotate``."""
    if n < 2:
        raise ValueError(f"a binomial tree needs n >= 2 ranks, got {n!r}")
    n_levels = (n - 1).bit_length()  # exact ⌈log₂ n⌉, no float rounding
    steps: list[list[Transfer]] = []
    for k in range(1, n_levels + 1):
        half = 1 << (k - 1)
        steps.append(
            [
                Transfer(
                    src=(j + rotate) % n, dst=(j - half + rotate) % n,
                    lo=lo, hi=hi, op="sum",
                )
                for j in range(half, n, 1 << k)
            ]
        )
    for k in range(n_levels, 0, -1):
        half = 1 << (k - 1)
        steps.append(
            [
                Transfer(
                    src=(j - half + rotate) % n, dst=(j + rotate) % n,
                    lo=lo, hi=hi, op="copy",
                )
                for j in range(half, n, 1 << k)
            ]
        )
    return steps


def _steps(n: int, total: int, rotate: int) -> list[CommStep]:
    """Both trees' transfers merged step by step (tree B rotated)."""
    mid = total // 2
    tree_a = _tree_steps(n, 0, mid, rotate=0)
    tree_b = _tree_steps(n, mid, total, rotate=rotate)
    steps = []
    n_levels = (n - 1).bit_length()
    for idx, (a, b) in enumerate(zip(tree_a, tree_b)):
        stage = "reduce" if idx < n_levels else "broadcast"
        transfers = tuple(
            t for t in (*a, *b) if t.n_elems > 0
        )
        steps.append(
            CommStep(
                transfers,
                stage=stage,
                level=(idx + 1) if idx < n_levels else (2 * n_levels - idx),
            )
        )
    return steps


def build_dbtree_schedule(
    n_nodes: int, total_elems: int, materialize: bool | None = None
) -> Schedule:
    """Build the double-binary-tree All-reduce schedule.

    Args:
        n_nodes: Participants N >= 1.
        total_elems: Gradient vector length (halved across the two trees).
        materialize: API symmetry; always cheap, built unless disabled.
            Disabled, the steps are built only if the timing profile is
            read.

    Returns:
        A :class:`Schedule` with ``2⌈log₂N⌉`` steps, every step carrying
        both trees' transfers on disjoint vector halves.
    """
    check_positive_int("n_nodes", n_nodes)
    check_positive_int("total_elems", total_elems)
    if n_nodes == 1:
        return singleton_schedule("dbtree", total_elems)
    rotate = (n_nodes + 1) // 2
    n_levels = (n_nodes - 1).bit_length()
    steps, profile = steps_and_profile(materialize, _steps, n_nodes, total_elems, rotate)
    return Schedule(
        algorithm="dbtree",
        n_nodes=n_nodes,
        total_elems=total_elems,
        steps=steps,
        timing_profile=profile,
        meta={"profile_exact": True, "rotation": rotate, "n_levels": n_levels},
    )
