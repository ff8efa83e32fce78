"""Established optical circuits and exclusivity validation.

The executor turns each (transfer, route, channel) triple of a round into a
:class:`Circuit` record. Circuits are the unit the test suite audits: within
one round, no two circuits on the same (direction, fiber, wavelength) may
share a segment — the defining property of circuit-switched WDM.

Conflict detection is the segment×direction×wavelength interval analysis of
:mod:`repro.check.intervals`: each maximal run of consecutive crossed
segments is one half-open interval on the circuit's channel resource, so a
ring route is one interval, or two when it is split at the wrap point
(segment N−1 → 0). Two circuits on one channel overlap as runs exactly when
they share a segment. :func:`validate_no_conflicts` is the thin raising
wrapper the executors call, and the plan verifier consumes the same
:func:`circuit_conflicts` as findings.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.check.intervals import Claim, Conflict, find_conflicts
from repro.collectives.base import Transfer
from repro.optical.topology import Route


class CircuitConflictError(ValueError):
    """Two circuits of one round collide on a WDM channel segment."""


@dataclass(frozen=True)
class Circuit:
    """One established lightpath within a round.

    Attributes:
        transfer: The logical transfer carried.
        route: Direction and crossed segments.
        fiber: Fiber index within the direction's pool.
        wavelength: Wavelength index on that fiber.
        payload_bytes: Bytes carried (elements × bytes/element).
        duration: Seconds of serialization + O/E/O for the payload.
    """

    transfer: Transfer
    route: Route
    fiber: int
    wavelength: int
    payload_bytes: float
    duration: float

    def __post_init__(self) -> None:
        if self.fiber < 0 or self.wavelength < 0:
            raise ValueError("fiber and wavelength must be >= 0")
        if self.payload_bytes < 0 or self.duration < 0:
            raise ValueError("payload and duration must be >= 0")

    @property
    def channel(self) -> tuple[str, int, int]:
        """The WDM channel key: (direction, fiber, wavelength)."""
        return (self.route.direction.value, self.fiber, self.wavelength)


def _segment_runs(segments: tuple[int, ...]) -> list[tuple[int, int]]:
    """Maximal runs of consecutive segment ids as half-open ``[lo, hi)``."""
    ordered = sorted(segments)
    runs = []
    lo = prev = ordered[0]
    for segment in ordered[1:]:
        if segment != prev + 1:
            runs.append((lo, prev + 1))
            lo = segment
        prev = segment
    runs.append((lo, prev + 1))
    return runs


def circuit_claims(circuits: list[Circuit]) -> list[Claim]:
    """One exclusive interval claim per run of consecutive crossed segments.

    The claim resource is the WDM channel ``(direction, fiber,
    wavelength)``; a run of segments ``s .. t`` becomes ``[s, t+1)``. A
    :class:`~repro.optical.topology.Route` never revisits a segment, so
    ``max - min + 1 == hops`` proves it contiguous (the common case: one
    claim); otherwise the sorted segments are split into runs, e.g. at the
    ring's wrap point. Circuits are never combinable — any overlap is a
    conflict.
    """
    claims = []
    for circuit in circuits:
        channel = circuit.channel
        segments = circuit.route.segments
        lo, hi = min(segments), max(segments) + 1
        if hi - lo == len(segments):
            claims.append(Claim(channel, lo, hi, owner=circuit))
        else:
            claims.extend(
                Claim(channel, lo, hi, owner=circuit)
                for lo, hi in _segment_runs(segments)
            )
    return claims


def circuit_conflicts(
    circuits: list[Circuit], first_only: bool = False
) -> list[Conflict]:
    """Segment-exclusivity conflicts among one round's circuits.

    The shared implementation behind :func:`validate_no_conflicts` (raises)
    and the plan verifier's wavelength-conflict rule (reports findings).
    """
    return find_conflicts(circuit_claims(circuits), first_only=first_only)


def describe_conflict(conflict: Conflict) -> str:
    """Human-readable rendering of one circuit conflict."""
    first: Circuit = conflict.first.owner
    second: Circuit = conflict.second.owner
    return (
        f"circuits {first.transfer.src}->{first.transfer.dst} and "
        f"{second.transfer.src}->{second.transfer.dst} share "
        f"segment {conflict.overlap[0]} on channel {second.channel}"
    )


def validate_no_conflicts(circuits: list[Circuit]) -> None:
    """Assert segment-exclusivity of one round's circuits.

    Thin wrapper over :func:`circuit_conflicts` kept as the executors'
    runtime entry point.

    Raises:
        CircuitConflictError: naming the first offending pair.
    """
    conflicts = circuit_conflicts(circuits, first_only=True)
    if conflicts:
        raise CircuitConflictError(describe_conflict(conflicts[0]))
