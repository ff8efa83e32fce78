"""Schedule data model shared by all All-reduce builders and executors.

Semantics
---------

A :class:`Schedule` is executed step by step; steps are bulk-synchronous
barriers (the paper's model: MRRs reconfigure between steps, and a step
completes when its slowest transfer completes). Within one step every
:class:`Transfer` reads the *pre-step* contents of its source buffer, so
symmetric exchanges (recursive doubling, all-to-all) are well-defined.

A transfer moves the element range ``[lo, hi)`` of the source node's vector
to the destination, where it is combined according to ``op``:

- ``"sum"``  — destination accumulates (``dst[lo:hi] += src[lo:hi]``),
- ``"copy"`` — destination overwrites (``dst[lo:hi] = src[lo:hi]``).

Timing profiles
---------------

Materializing every step of Ring All-reduce at N=4096 would allocate ~33M
transfer objects. Since timing depends only on each step's communication
*pattern* (who sends how many bytes to whom), builders also expose
``timing_profile``: a list of ``(CommStep, repeat_count)`` pairs with one
representative step per run of identical-pattern steps. Executors consume
the profile; the numerical verifier consumes the exact materialized steps
(built only for sizes where that is cheap).

Builders hand the profile over as a zero-argument callable, and the
schedule builds it the first time something reads it. The optical and
electrical backends, the verifier and ``n_steps`` read it; the analytic
backend prices from ``(algorithm, n_nodes, total_elems, meta)`` alone, so
a closed-form cell never constructs a single :class:`Transfer`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterator, Literal, Sequence

from repro.check.intervals import Claim
from repro.util.validation import check_positive_int

Op = Literal["sum", "copy"]


@dataclass(frozen=True)
class Transfer:
    """One point-to-point transfer of an element range.

    Attributes:
        src: Sending node id.
        dst: Receiving node id.
        lo: First element index (inclusive).
        hi: Last element index (exclusive).
        op: How the destination combines the payload (``sum``/``copy``).
    """

    src: int
    dst: int
    lo: int
    hi: int
    op: Op = "sum"

    def __post_init__(self) -> None:
        if self.src == self.dst:
            raise ValueError(f"self-transfer at node {self.src}")
        if not (0 <= self.lo <= self.hi):
            raise ValueError(f"bad element range [{self.lo}, {self.hi})")
        if self.op not in ("sum", "copy"):
            raise ValueError(f"op must be 'sum' or 'copy', got {self.op!r}")

    @property
    def n_elems(self) -> int:
        """Number of vector elements moved."""
        return self.hi - self.lo

    def write_claim(self) -> Claim:
        """This transfer's destination write as an interval claim.

        The claim resource is the destination node; ``sum`` writes are
        combinable (they commute), ``copy`` writes are exclusive. The
        shared interval engine (:mod:`repro.check.intervals`) consumes
        these for conflict detection in the numerical executor and the
        static plan verifier alike.
        """
        return Claim(
            resource=self.dst,
            lo=self.lo,
            hi=self.hi,
            owner=self,
            combinable=self.op == "sum",
        )


@dataclass(frozen=True)
class CommStep:
    """One bulk-synchronous step of concurrent transfers.

    Attributes:
        transfers: Concurrent transfers; a destination may receive multiple
            ``sum`` transfers in one step (WRHT group collect), but at most
            one ``copy`` per overlapping range (checked by the verifier).
        stage: ``"reduce"``, ``"broadcast"`` or ``"exchange"`` — used for
            reporting and assertions, not semantics.
        level: Hierarchy level (1-based) for tree/WRHT steps, 0 otherwise.
    """

    transfers: tuple[Transfer, ...]
    stage: str = "reduce"
    level: int = 0

    def __post_init__(self) -> None:
        if not self.transfers:
            raise ValueError("a CommStep needs at least one transfer")

    @property
    def n_transfers(self) -> int:
        """Number of concurrent transfers."""
        return len(self.transfers)

    def total_elems(self) -> int:
        """Sum of element counts across transfers (for byte accounting)."""
        return sum(t.n_elems for t in self.transfers)

    def pattern_key(self) -> tuple:
        """Hashable key identifying the step's timing-relevant pattern.

        Two steps with the same key take exactly the same time on any of the
        substrates: same (src, dst, size, op) multiset. Element *positions*
        are deliberately excluded — a Ring reduce-scatter step moving chunk
        ``c`` costs the same as one moving chunk ``c+1``.
        """
        key = self.__dict__.get("_pattern_key")
        if key is None:
            key = tuple(sorted((t.src, t.dst, t.n_elems, t.op) for t in self.transfers))
            # Cached beside the frozen fields: equality, hashing and repr
            # still see only the transfers, stage and level.
            self.__dict__["_pattern_key"] = key
        return key

    def write_claims(self) -> list[Claim]:
        """Dataflow metadata: every non-empty transfer's destination claim.

        The static verifier's conflict and conservation rules consume this
        instead of re-deriving write sets from raw transfers.
        """
        return [t.write_claim() for t in self.transfers if t.n_elems > 0]

    def reads_by_node(self) -> dict[int, list[Transfer]]:
        """Dataflow metadata: transfers grouped by the node they read from.

        All reads observe pre-step state (bulk-synchronous semantics), so
        this grouping fully describes what a step consumes.
        """
        by_src: dict[int, list[Transfer]] = {}
        for t in self.transfers:
            if t.n_elems > 0:
                by_src.setdefault(t.src, []).append(t)
        return by_src


Profile = list[tuple[CommStep, int]]


class Schedule:
    """A complete All-reduce schedule plus its compressed timing profile.

    Attributes:
        algorithm: Builder name (``"ring"``, ``"wrht"``, ...).
        n_nodes: Number of participating nodes.
        total_elems: Length of the gradient vector being reduced.
        steps: Materialized steps (may be ``None`` at large scale).
        timing_profile: ``(representative_step, count)`` pairs covering the
            whole schedule in order. The constructor takes the list itself
            or a zero-argument callable returning it; a callable runs once,
            on the first read.
        meta: Builder-specific extras (e.g. the :class:`WrhtPlan`).
    """

    def __init__(
        self,
        algorithm: str,
        n_nodes: int,
        total_elems: int,
        steps: list[CommStep] | None,
        timing_profile: Profile | Callable[[], Profile],
        meta: dict | None = None,
    ) -> None:
        check_positive_int("n_nodes", n_nodes)
        check_positive_int("total_elems", total_elems)
        self.algorithm = algorithm
        self.n_nodes = n_nodes
        self.total_elems = total_elems
        self.steps = steps
        self.meta = {} if meta is None else meta
        self._profile: Profile | None = None
        self._build_profile: Callable[[], Profile] | None = None
        if callable(timing_profile):
            self._build_profile = timing_profile
        else:
            self._set_profile(timing_profile)

    def _set_profile(self, profile: Profile) -> None:
        if not profile and self.n_nodes > 1:
            raise ValueError("schedule must have a timing profile")
        self._profile = profile

    @property
    def timing_profile(self) -> Profile:
        """The ``(representative_step, count)`` pairs, built on first read."""
        if self._profile is None:
            self._set_profile(self._build_profile())
            self._build_profile = None
        return self._profile

    @property
    def profile_built(self) -> bool:
        """Whether the timing profile exists yet (reading it builds it)."""
        return self._profile is not None

    @property
    def n_steps(self) -> int:
        """Total communication steps."""
        return sum(count for _, count in self.timing_profile)

    def lowering_profile(self) -> Iterator[tuple[CommStep, int, tuple]]:
        """The stable lowering entry point backends consume.

        Yields ``(representative_step, count, pattern_key)`` triples in
        schedule order — the timing profile with each entry's pattern key
        precomputed, so every backend deduplicates identically.
        """
        for step, count in self.timing_profile:
            yield step, count, step.pattern_key()

    def iter_steps(self) -> Iterator[CommStep]:
        """Iterate materialized steps (requires ``steps`` to be present)."""
        if self.steps is None:
            raise RuntimeError(
                f"{self.algorithm} schedule was built without materialized "
                "steps (pass materialize=True to the builder)"
            )
        return iter(self.steps)

    def validate_against_profile(self) -> None:
        """Check that materialized steps and timing profile agree.

        Called by tests: step count must match, and each materialized step's
        pattern key must equal its profile representative's.
        """
        if self.steps is None:
            return
        if len(self.steps) != self.n_steps:
            raise AssertionError(
                f"{self.algorithm}: {len(self.steps)} materialized steps vs "
                f"profile total {self.n_steps}"
            )
        idx = 0
        for rep, count in self.timing_profile:
            key = rep.pattern_key()
            for _ in range(count):
                actual = self.steps[idx].pattern_key()
                if actual != key:
                    raise AssertionError(
                        f"{self.algorithm}: step {idx} pattern differs from "
                        "its profile representative"
                    )
                idx += 1


def compress_steps(steps: Sequence[CommStep]) -> Profile:
    """Run-length encode consecutive steps with identical pattern keys."""
    profile: Profile = []
    prev_key = None
    for step in steps:
        key = step.pattern_key()
        if profile and key == prev_key:
            rep, count = profile[-1]
            profile[-1] = (rep, count + 1)
        else:
            profile.append((step, 1))
            prev_key = key
    return profile


def singleton_schedule(algorithm: str, total_elems: int) -> Schedule:
    """The degenerate 1-node schedule: nothing to communicate."""
    return Schedule(
        algorithm=algorithm,
        n_nodes=1,
        total_elems=total_elems,
        steps=[],
        timing_profile=[],
    )


def compressed_profile(build_steps: Callable[..., list[CommStep]], *args) -> Profile:
    """``compress_steps(build_steps(*args))``, as one picklable callable."""
    return compress_steps(build_steps(*args))


def steps_and_profile(
    materialize: bool | None, build_steps: Callable[..., list[CommStep]], *args
) -> tuple[list[CommStep] | None, Profile | Callable[[], Profile]]:
    """``(steps, timing_profile)`` for a builder whose profile is its own
    compressed steps.

    ``build_steps(*args)`` runs now unless ``materialize`` is ``False``;
    then it runs only if the profile is read, and ``steps`` is ``None``.
    Materialized steps are compressed at once: they exist already, and
    their pattern keys are cached for the backend that lowers them.
    """
    if materialize is False:
        return None, partial(compressed_profile, build_steps, *args)
    steps = build_steps(*args)
    return steps, compress_steps(steps)
