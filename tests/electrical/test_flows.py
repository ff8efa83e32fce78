"""Max-min fair fluid simulation tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.electrical.flows import Flow, FluidSimulation, max_min_rates


class TestMaxMinRates:
    def test_single_flow_gets_capacity(self):
        flows = [Flow(0, (0,), 100.0)]
        rates = max_min_rates(flows, [10.0])
        assert rates[0] == 10.0

    def test_equal_sharing(self):
        flows = [Flow(i, (0,), 100.0) for i in range(4)]
        rates = max_min_rates(flows, [8.0])
        assert np.allclose(rates, 2.0)

    def test_classic_three_flow_example(self):
        # Links A and B (cap 10 each). Flow 0 crosses A, flow 1 crosses B,
        # flow 2 crosses both. Each link carries two flows, so both tie at
        # a share of 10 / 2 = 5 and every flow gets 5.
        flows = [Flow(0, (0,), 1.0), Flow(1, (1,), 1.0), Flow(2, (0, 1), 1.0)]
        rates = max_min_rates(flows, [10.0, 10.0])
        assert rates[2] == pytest.approx(5.0)
        assert rates[0] == pytest.approx(5.0)
        assert rates[1] == pytest.approx(5.0)

    def test_unequal_bottlenecks(self):
        # Flow 0 alone on a fat link; flow 1 shares a thin link with flow 2.
        flows = [Flow(0, (0,), 1.0), Flow(1, (1,), 1.0), Flow(2, (1,), 1.0)]
        rates = max_min_rates(flows, [100.0, 10.0])
        assert rates[0] == pytest.approx(100.0)
        assert rates[1] == rates[2] == pytest.approx(5.0)

    def test_empty(self):
        assert max_min_rates([], [1.0]).size == 0

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.lists(st.integers(0, 5), min_size=1, max_size=3, unique=True),
            min_size=1, max_size=12,
        )
    )
    def test_feasibility_and_saturation_property(self, routes):
        capacities = [10.0] * 6
        flows = [Flow(i, tuple(r), 1.0) for i, r in enumerate(routes)]
        rates = max_min_rates(flows, capacities)
        # Feasible: no link oversubscribed.
        load = np.zeros(6)
        for f, r in zip(flows, rates):
            for link in f.links:
                load[link] += r
        assert np.all(load <= 10.0 + 1e-6)
        # Every flow crosses at least one saturated link (max-min property).
        for f, r in zip(flows, rates):
            assert any(load[l] >= 10.0 - 1e-6 for l in f.links) or r >= 10.0 - 1e-6


class TestFluidSimulation:
    def test_single_flow_finish_time(self):
        sim = FluidSimulation([10.0])
        flow = Flow(0, (0,), 100.0, latency=0.5)
        assert sim.run([flow]) == pytest.approx(10.5)
        assert flow.finish_time == pytest.approx(10.5)

    def test_shared_then_released_bandwidth(self):
        # Two flows share a link; the short one finishes and the long one
        # speeds up: 50@5 takes 10s together... short(25) done at t=5,
        # long has 25 left at 10 B/s -> finishes 7.5.
        sim = FluidSimulation([10.0])
        short = Flow(0, (0,), 25.0)
        long = Flow(1, (0,), 50.0)
        total = sim.run([short, long])
        assert short.finish_time == pytest.approx(5.0)
        assert long.finish_time == pytest.approx(7.5)
        assert total == pytest.approx(7.5)

    def test_zero_size_flow(self):
        sim = FluidSimulation([10.0])
        flow = Flow(0, (0,), 0.0, latency=0.25)
        assert sim.run([flow]) == pytest.approx(0.25)

    def test_no_flows(self):
        assert FluidSimulation([1.0]).run([]) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            FluidSimulation([])
        with pytest.raises(ValueError):
            FluidSimulation([0.0])
        with pytest.raises(ValueError):
            Flow(0, (), 1.0)
        with pytest.raises(ValueError):
            Flow(0, (0,), -1.0)

    @pytest.mark.parametrize("links", [(-1,), (0, -2)])
    def test_negative_link_id_rejected(self, links):
        # A negative id used to index the capacity table from the end.
        with pytest.raises(ValueError, match=">= 0"):
            Flow(7, links, 1.0)

    @pytest.mark.parametrize("links", [(0.0,), ("1",), (True,), (None,)])
    def test_non_integer_link_id_rejected(self, links):
        with pytest.raises(ValueError, match="integers"):
            Flow(7, links, 1.0)

    def test_numpy_integer_link_id_accepted(self):
        assert Flow(0, (np.int64(3),), 1.0).links == (3,)

    def test_link_beyond_capacity_table_rejected(self):
        sim = FluidSimulation([10.0, 10.0])
        flows = [Flow(0, (0,), 1.0), Flow(42, (1, 2), 1.0)]
        with pytest.raises(ValueError, match="flow 42 crosses link 2"):
            sim.run(flows)
        assert all(f.finish_time is None for f in flows)

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.floats(1.0, 1e6), min_size=1, max_size=10))
    def test_conservation_property(self, sizes):
        # All flows on one link: total time = total bytes / capacity.
        sim = FluidSimulation([100.0])
        flows = [Flow(i, (0,), s) for i, s in enumerate(sizes)]
        total = sim.run(flows)
        assert total == pytest.approx(sum(sizes) / 100.0, rel=1e-6)
