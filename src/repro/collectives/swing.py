"""Swing All-reduce: distance-doubling ring with alternating short-cuts.

The logical construction of Swing (arXiv 2401.09356): the vector is split
into ``P`` blocks over ``P = 2^K`` core ranks and reduced in ``K`` steps of
recursive halving followed by ``K`` mirrored all-gather steps — the same
``2·⌈log₂P⌉`` step count as Rabenseifner's halving/doubling — but the peer
of rank ``i`` at step ``s`` is chosen on the *ring*:

    π(i, s) = (i + (−1)^i · ρ(s)) mod P,   ρ(s) = Σ_{k≤s} (−2)^k

so even ranks hop ``+ρ(s)`` and odd ranks ``−ρ(s)`` (ρ = 1, −1, 3, −5, 11,
…). ρ is always odd, which makes π an involution pairing even with odd
ranks, and the alternating signs keep the ring distance of every exchange
bounded by ≈ P/3 instead of recursive doubling's P/2 — the property that
makes Swing attractive on ring-like physical topologies.

Block routing follows the standard cover-set recursion: after the final
step rank ``i`` is responsible for block ``i`` alone (``c(i, K) = {i}``),
and one step earlier it was responsible for ``c(i, s) = c(i, s+1) ∪
c(π(i,s), s+1)``. Reduce-scatter step ``s`` therefore sends the blocks
``c(π(i,s), s+1)`` (``2^{K−s−1}`` of them, i.e. payload ``d/2^{s+1}``) to
the peer; the all-gather mirrors the recursion in reverse with ``copy``
transfers. Cover sets are generally non-contiguous, so materialized steps
carry one transfer per consecutive block run.

Non-powers of two use the MPICH fold of :mod:`repro.collectives.rd`: the
first ``2r`` nodes (``r = N − P``) fold odd→even in a pre-step and receive
the result back in a post-step, adding two full-vector steps.
"""

from __future__ import annotations

from functools import partial

from repro.collectives.base import (
    CommStep,
    Schedule,
    Transfer,
    compress_steps,
    singleton_schedule,
)
from repro.collectives.rd import _core_node
from repro.collectives.ring import MATERIALIZE_DEFAULT_LIMIT, chunk_bounds
from repro.util.validation import check_positive_int


def swing_distance(s: int) -> int:
    """The step-``s`` hop distance ``ρ(s) = Σ_{k=0}^{s} (−2)^k`` (1, −1, 3, …)."""
    if s < 0:
        raise ValueError(f"step index must be >= 0, got {s!r}")
    return (1 - (-2) ** (s + 1)) // 3


def swing_peer(rank: int, s: int, p: int) -> int:
    """Swing's step-``s`` peer of ``rank`` among ``p`` core ranks.

    ρ(s) is odd, so the map is an involution that always pairs an even
    rank with an odd one — every rank has exactly one peer per step.
    """
    sign = 1 if rank % 2 == 0 else -1
    return (rank + sign * swing_distance(s)) % p


def _cover_sets(p: int) -> list[dict[int, tuple[int, ...]]]:
    """``cover[s][i]`` = blocks rank ``i`` is responsible for before step ``s``.

    ``cover[K][i] = (i,)``; going backward each step merges a rank's set
    with its peer's. The sets at a fixed ``s`` partition ``range(p)`` —
    the invariant that makes the reduce-scatter conflict-free.
    """
    k_levels = p.bit_length() - 1
    cover: list[dict[int, tuple[int, ...]]] = [{} for _ in range(k_levels + 1)]
    cover[k_levels] = {i: (i,) for i in range(p)}
    for s in range(k_levels - 1, -1, -1):
        nxt = cover[s + 1]
        cover[s] = {
            i: tuple(sorted(nxt[i] + nxt[swing_peer(i, s, p)])) for i in range(p)
        }
    return cover


def _block_transfers(
    src: int, dst: int, blocks: tuple[int, ...], bounds: list[tuple[int, int]], op: str
) -> list[Transfer]:
    """One transfer per consecutive run of block ids (blocks are sorted)."""
    transfers: list[Transfer] = []
    run_start = 0
    for idx in range(1, len(blocks) + 1):
        if idx == len(blocks) or blocks[idx] != blocks[idx - 1] + 1:
            lo = bounds[blocks[run_start]][0]
            hi = bounds[blocks[idx - 1]][1]
            transfers.append(Transfer(src=src, dst=dst, lo=lo, hi=hi, op=op))
            run_start = idx
    return transfers


def _materialize(n: int, p: int, r: int, total: int) -> list[CommStep]:
    k_levels = p.bit_length() - 1
    bounds = chunk_bounds(total, p)
    cover = _cover_sets(p)
    steps: list[CommStep] = []
    if r > 0:  # MPICH fold: odds of the first 2r nodes onto the evens
        steps.append(
            CommStep(
                tuple(
                    Transfer(src=2 * i + 1, dst=2 * i, lo=0, hi=total, op="sum")
                    for i in range(r)
                ),
                stage="reduce",
            )
        )
    for s in range(k_levels):  # reduce-scatter: send the peer's cover set
        transfers: list[Transfer] = []
        for i in range(p):
            peer = swing_peer(i, s, p)
            transfers.extend(
                _block_transfers(
                    _core_node(i, r), _core_node(peer, r),
                    cover[s + 1][peer], bounds, "sum",
                )
            )
        steps.append(CommStep(tuple(transfers), stage="reduce", level=s + 1))
    for t in range(k_levels):  # all-gather: mirror, nearest distance first
        s = k_levels - 1 - t
        transfers = []
        for i in range(p):
            peer = swing_peer(i, s, p)
            transfers.extend(
                _block_transfers(
                    _core_node(i, r), _core_node(peer, r),
                    cover[s + 1][i], bounds, "copy",
                )
            )
        steps.append(CommStep(tuple(transfers), stage="broadcast", level=s + 1))
    if r > 0:  # hand the result back to the folded odd nodes
        steps.append(
            CommStep(
                tuple(
                    Transfer(src=2 * i, dst=2 * i + 1, lo=0, hi=total, op="copy")
                    for i in range(r)
                ),
                stage="broadcast",
            )
        )
    return steps


def _profile(n: int, p: int, r: int, total: int) -> list[tuple[CommStep, int]]:
    """Synthetic timing profile: exact (src, dst) pattern, uniform blocks.

    Each core step is a circulant exchange, so the pattern is one coalesced
    transfer per (rank, peer) pair of ``count · ⌈total/P⌉`` elements —
    the same per-pair volume as the materialized block runs, without the
    O(N·P) interval objects.
    """
    import math

    k_levels = p.bit_length() - 1
    chunk = min(math.ceil(total / p), total)
    profile: list[tuple[CommStep, int]] = []
    if r > 0:
        profile.append(
            (
                CommStep(
                    tuple(
                        Transfer(2 * i + 1, 2 * i, 0, total, "sum") for i in range(r)
                    ),
                    stage="reduce",
                ),
                1,
            )
        )
    for s in range(k_levels):
        count = 1 << (k_levels - s - 1)
        size = min(count * chunk, total)
        step = CommStep(
            tuple(
                Transfer(
                    _core_node(i, r), _core_node(swing_peer(i, s, p), r),
                    0, size, "sum",
                )
                for i in range(p)
            ),
            stage="reduce",
            level=s + 1,
        )
        profile.append((step, 1))
    for t in range(k_levels):
        s = k_levels - 1 - t
        size = min((1 << t) * chunk, total)
        step = CommStep(
            tuple(
                Transfer(
                    _core_node(i, r), _core_node(swing_peer(i, s, p), r),
                    0, size, "copy",
                )
                for i in range(p)
            ),
            stage="broadcast",
            level=s + 1,
        )
        profile.append((step, 1))
    if r > 0:
        profile.append(
            (
                CommStep(
                    tuple(
                        Transfer(2 * i, 2 * i + 1, 0, total, "copy") for i in range(r)
                    ),
                    stage="broadcast",
                ),
                1,
            )
        )
    return profile


def build_swing_schedule(
    n_nodes: int, total_elems: int, materialize: bool | None = None
) -> Schedule:
    """Build the Swing All-reduce schedule.

    Args:
        n_nodes: Participants N >= 1 (any N; non-powers of two pay the
            two-step MPICH fold).
        total_elems: Gradient vector length.
        materialize: Force (True) or skip (False) exact step construction;
            ``None`` materializes for N <= 128 (cover-set materialization
            is O(N·P) intervals).

    Returns:
        A :class:`Schedule` with ``2⌊log₂N⌋`` core steps (+2 fold steps
        for non-powers of two). ``meta["profile_exact"]`` is True only for
        materialized schedules — the synthetic profile coalesces each
        peer's block runs into one uniform-chunk transfer.
    """
    check_positive_int("n_nodes", n_nodes)
    check_positive_int("total_elems", total_elems)
    if n_nodes == 1:
        return singleton_schedule("swing", total_elems)
    floor_log = n_nodes.bit_length() - 1
    p = 1 << floor_log
    r = n_nodes - p
    if materialize is None:
        materialize = n_nodes <= MATERIALIZE_DEFAULT_LIMIT
    if materialize:
        steps: list[CommStep] | None = _materialize(n_nodes, p, r, total_elems)
        profile = compress_steps(steps)
    else:
        steps = None
        profile = partial(_profile, n_nodes, p, r, total_elems)
    return Schedule(
        algorithm="swing",
        n_nodes=n_nodes,
        total_elems=total_elems,
        steps=steps,
        timing_profile=profile,
        meta={"profile_exact": bool(materialize), "power_of_two": r == 0},
    )
