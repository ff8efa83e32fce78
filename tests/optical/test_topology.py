"""Ring topology tests."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.optical.topology import Direction, RingTopology, Route


class TestRoute:
    def test_needs_segments(self):
        with pytest.raises(ValueError):
            Route(Direction.CW, ())

    def test_no_revisits(self):
        with pytest.raises(ValueError):
            Route(Direction.CW, (1, 2, 1))

    def test_hops(self):
        assert Route(Direction.CW, (0, 1, 2)).hops == 3


class TestDirection:
    def test_opposite(self):
        assert Direction.CW.opposite() is Direction.CCW
        assert Direction.CCW.opposite() is Direction.CW


class TestRingTopology:
    def test_needs_two_nodes(self):
        with pytest.raises(ValueError):
            RingTopology(1)

    def test_cw_route_segments(self):
        ring = RingTopology(8)
        assert ring.cw_route(2, 5).segments == (2, 3, 4)

    def test_cw_route_wraps(self):
        ring = RingTopology(8)
        assert ring.cw_route(6, 1).segments == (6, 7, 0)

    def test_ccw_route_segments(self):
        ring = RingTopology(8)
        # CCW from 5 to 2 crosses segments 4, 3, 2.
        assert ring.ccw_route(5, 2).segments == (4, 3, 2)

    def test_ccw_route_wraps(self):
        ring = RingTopology(8)
        assert ring.ccw_route(1, 6).segments == (0, 7, 6)

    def test_shortest_prefers_fewer_hops(self):
        ring = RingTopology(10)
        assert ring.shortest_route(0, 3).direction is Direction.CW
        assert ring.shortest_route(0, 7).direction is Direction.CCW

    def test_tie_goes_clockwise(self):
        ring = RingTopology(8)
        assert ring.shortest_route(0, 4).direction is Direction.CW

    def test_self_route_rejected(self):
        with pytest.raises(ValueError):
            RingTopology(4).shortest_route(2, 2)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            RingTopology(4).cw_route(0, 7)

    @pytest.mark.parametrize(
        "call",
        [
            lambda ring: ring.ccw_route(9, 3),
            lambda ring: ring.ccw_route(3, 8),
            lambda ring: ring.ccw_distance(-1, 3),
            lambda ring: ring.route(-1, 3, Direction.CCW),
            lambda ring: ring.route(3, 8, Direction.CW),
        ],
    )
    def test_out_of_range_rejected_in_both_directions(self, call):
        with pytest.raises(ValueError, match="out of range"):
            call(RingTopology(8))

    @given(st.integers(2, 100), st.integers(0, 99), st.integers(0, 99))
    def test_distance_identity(self, n, a, b):
        a, b = a % n, b % n
        ring = RingTopology(n)
        if a != b:
            assert ring.cw_distance(a, b) + ring.ccw_distance(a, b) == n
            assert ring.cw_route(a, b).hops == ring.cw_distance(a, b)
            assert ring.shortest_route(a, b).hops <= n // 2

    @given(st.integers(2, 60), st.integers(0, 59), st.integers(0, 59))
    def test_routes_end_adjacent_to_destination(self, n, a, b):
        a, b = a % n, b % n
        if a == b:
            return
        ring = RingTopology(n)
        cw = ring.cw_route(a, b)
        assert cw.segments[0] == a
        assert (cw.segments[-1] + 1) % n == b
        ccw = ring.ccw_route(a, b)
        assert ccw.segments[0] == (a - 1) % n
        assert ccw.segments[-1] == b


def _oracle_segments(n, src, dst, direction):
    """The per-segment ``% N`` definition of a directional route."""
    if direction is Direction.CW:
        return tuple((src + k) % n for k in range((dst - src) % n))
    return tuple((src - 1 - k) % n for k in range((src - dst) % n))


class TestRouteSegmentsMatchOracle:
    @pytest.mark.parametrize("n", range(2, 17))
    def test_every_ordered_pair_small_rings(self, n):
        ring = RingTopology(n)
        for src in range(n):
            for dst in range(n):
                if src == dst:
                    continue
                for direction in Direction:
                    route = ring.route(src, dst, direction)
                    assert route.direction is direction
                    assert route.segments == _oracle_segments(n, src, dst, direction)

    def test_wrapping_pairs_at_1024(self):
        n = 1024
        ring = RingTopology(n)
        ends = (0, 1, 24, 511, 512, 1000, 1022, 1023)
        wrapped = set()
        for src in ends:
            for dst in ends:
                if src == dst:
                    continue
                for direction in Direction:
                    segments = ring.route(src, dst, direction).segments
                    assert segments == _oracle_segments(n, src, dst, direction)
                    step = 1 if direction is Direction.CW else -1
                    if any(b != a + step for a, b in zip(segments, segments[1:])):
                        wrapped.add(direction)
        assert wrapped == set(Direction)
