"""Circuit record and conflict-audit tests."""

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.check.intervals import Claim, find_conflicts
from repro.collectives.base import Transfer
from repro.collectives.registry import build_schedule
from repro.optical.circuit import (
    Circuit,
    CircuitConflictError,
    circuit_claims,
    circuit_conflicts,
    describe_conflict,
    validate_no_conflicts,
)
from repro.optical.config import OpticalSystemConfig
from repro.optical.network import OpticalRingNetwork
from repro.optical.topology import Direction, RingTopology, Route


def _circuit(src, dst, segments, direction=Direction.CW, fiber=0, lam=0):
    return Circuit(
        transfer=Transfer(src, dst, 0, 10),
        route=Route(direction, tuple(segments)),
        fiber=fiber,
        wavelength=lam,
        payload_bytes=40.0,
        duration=1e-6,
    )


class TestCircuit:
    def test_channel_key(self):
        c = _circuit(0, 2, [0, 1], fiber=1, lam=7)
        assert c.channel == ("cw", 1, 7)

    def test_validation(self):
        with pytest.raises(ValueError):
            _circuit(0, 2, [0], fiber=-1)
        with pytest.raises(ValueError):
            Circuit(
                transfer=Transfer(0, 1, 0, 10),
                route=Route(Direction.CW, (0,)),
                fiber=0, wavelength=0, payload_bytes=-1.0, duration=0.0,
            )


class TestValidateNoConflicts:
    def test_disjoint_segments_pass(self):
        validate_no_conflicts([_circuit(0, 2, [0, 1]), _circuit(2, 4, [2, 3])])

    def test_shared_segment_same_channel_fails(self):
        with pytest.raises(CircuitConflictError, match="share"):
            validate_no_conflicts([_circuit(0, 3, [0, 1, 2]), _circuit(1, 3, [1, 2])])

    def test_shared_segment_different_wavelength_passes(self):
        validate_no_conflicts(
            [_circuit(0, 3, [0, 1, 2], lam=0), _circuit(1, 3, [1, 2], lam=1)]
        )

    def test_shared_segment_different_direction_passes(self):
        validate_no_conflicts(
            [
                _circuit(0, 3, [0, 1, 2], direction=Direction.CW),
                _circuit(3, 1, [2, 1], direction=Direction.CCW),
            ]
        )

    def test_shared_segment_different_fiber_passes(self):
        validate_no_conflicts(
            [_circuit(0, 3, [0, 1, 2], fiber=0), _circuit(1, 3, [1, 2], fiber=1)]
        )


class TestDescribeConflict:
    def test_names_a_segment_both_wrapping_routes_cross(self):
        # On an 8-ring, 6->2 CW wraps: segments (6, 7, 0, 1), claimed as the
        # runs [0, 2) and [6, 8). 1->3 CW crosses (1, 2). The only shared
        # segment is 1, though the wrapping route's run starts at 0.
        ring = RingTopology(8)
        wrapping = _circuit(6, 2, ring.cw_route(6, 2).segments)
        other = _circuit(1, 3, ring.cw_route(1, 3).segments)
        (conflict,) = circuit_conflicts([wrapping, other])
        message = describe_conflict(conflict)
        named = int(re.search(r"segment (\d+)", message).group(1))
        assert named == 1
        assert named in wrapping.route.segments
        assert named in other.route.segments


class TestCircuitClaims:
    def test_contiguous_route_is_one_claim(self):
        (claim,) = circuit_claims([_circuit(2, 6, [2, 3, 4, 5])])
        assert (claim.resource, claim.lo, claim.hi) == (("cw", 0, 0), 2, 6)

    def test_wrapping_route_splits_at_the_wrap_point(self):
        route = RingTopology(8).ccw_route(1, 5)  # segments (0, 7, 6, 5)
        claims = circuit_claims([_circuit(1, 5, route.segments, Direction.CCW)])
        assert sorted((c.lo, c.hi) for c in claims) == [(0, 1), (5, 8)]

    def test_non_contiguous_route_splits_into_runs(self):
        claims = circuit_claims([_circuit(0, 9, [9, 1, 2, 5, 3])])
        assert sorted((c.lo, c.hi) for c in claims) == [(1, 4), (5, 6), (9, 10)]


def _per_segment_claims(circuits):
    """Oracle: one unit claim ``[s, s+1)`` per crossed segment per circuit."""
    return [
        Claim(resource=c.channel, lo=s, hi=s + 1, owner=c, combinable=False)
        for c in circuits
        for s in c.route.segments
    ]


def _conflicting_pairs(conflicts, circuits):
    index = {id(c): i for i, c in enumerate(circuits)}
    return {
        frozenset((index[id(x.first.owner)], index[id(x.second.owner)]))
        for x in conflicts
    }


@st.composite
def _rounds(draw):
    n = draw(st.integers(min_value=2, max_value=16))
    ring = RingTopology(n)
    circuits = []
    for _ in range(draw(st.integers(min_value=1, max_value=10))):
        direction = draw(st.sampled_from([Direction.CW, Direction.CCW, None]))
        if draw(st.booleans()):
            src = draw(st.integers(min_value=0, max_value=n - 1))
            dst = draw(
                st.integers(min_value=0, max_value=n - 1).filter(lambda d: d != src)
            )
            # ``None`` is the shortest route, which breaks diameter ties.
            route = ring.route(src, dst, direction)
        else:
            segments = draw(
                st.lists(
                    st.integers(min_value=0, max_value=n - 1),
                    min_size=1, max_size=n, unique=True,
                )
            )
            route = Route(direction or Direction.CW, tuple(segments))
            src, dst = 0, 1
        circuits.append(
            Circuit(
                transfer=Transfer(src, dst, 0, 10),
                route=route,
                fiber=draw(st.integers(min_value=0, max_value=1)),
                wavelength=draw(st.integers(min_value=0, max_value=2)),
                payload_bytes=40.0,
                duration=1e-6,
            )
        )
    return circuits


class TestClaimParity:
    @settings(max_examples=300, deadline=None)
    @given(_rounds())
    def test_runs_conflict_exactly_when_segments_do(self, circuits):
        oracle = find_conflicts(_per_segment_claims(circuits))
        runs = circuit_conflicts(circuits)
        assert _conflicting_pairs(runs, circuits) == _conflicting_pairs(
            oracle, circuits
        )
        assert bool(circuit_conflicts(circuits, first_only=True)) == bool(
            find_conflicts(_per_segment_claims(circuits), first_only=True)
        )
        for conflict in runs:
            segment = conflict.overlap[0]
            assert segment in conflict.first.owner.route.segments
            assert segment in conflict.second.owner.route.segments


class TestClaimCount:
    @pytest.mark.parametrize(
        "algo, kwargs", [("swing", {}), ("wrht", {"n_wavelengths": 8})]
    )
    def test_at_most_two_claims_per_circuit(self, algo, kwargs):
        # A regression to per-hop claims shows up here as an exact count.
        n = 256
        net = OpticalRingNetwork(OpticalSystemConfig(n_nodes=n, n_wavelengths=8))
        schedule = build_schedule(algo, n, 64 * n, **kwargs)
        net.lower(schedule)
        n_circuits = 0
        for step, _count, _key in schedule.lowering_profile():
            for circuits in net.plan_step_rounds(step, 4.0):
                assert len(circuit_claims(circuits)) <= 2 * len(circuits)
                n_circuits += len(circuits)
        assert n_circuits > 0
