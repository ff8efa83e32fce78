"""Lazy-heap max-min solver vs the preserved seed implementation.

The heap-driven progressive filling in :mod:`repro.electrical.flows` must be
*semantically invisible*: the same bottleneck in the same order, the same
float operations, hence the same rates down to the last bit. These tests
drive both solvers over random link sets (ties, duplicate links within a
flow, residuals that only the clamp keeps non-negative), over real fat-tree
routes under every ECMP mode, and through :class:`FluidSimulation`, and
compare bit patterns against :mod:`repro.electrical._flows_reference` — the
seed code kept verbatim.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.electrical.flows as flows_module
from repro.collectives.registry import build_schedule
from repro.electrical._flows_reference import max_min_rates_reference
from repro.electrical.config import ElectricalSystemConfig
from repro.electrical.fattree import FatTree
from repro.electrical.flows import Flow, FluidSimulation, max_min_rates
from repro.electrical.routing import route

#: Few distinct values so equal shares (ties) are common, plus capacities
#: small enough that subtracting a share rounds below zero.
TIE_HEAVY_CAPACITIES = (1.0, 2.0, 3.0, 0.1, 0.3, 0.7, 1e-300, 5e-324)
ECMP_MODES = ("hash", "ideal")


def bits(values) -> list[int]:
    """IEEE-754 bit patterns of float64 ``values``."""
    return np.asarray(values, dtype=np.float64).view(np.int64).tolist()


def assert_bits_equal(actual: np.ndarray, expected: np.ndarray) -> None:
    assert actual.dtype == expected.dtype == np.float64
    assert bits(actual) == bits(expected)


@st.composite
def solver_instances(draw):
    """Random capacities and flows; a flow may list a link more than once."""
    n_links = draw(st.integers(min_value=1, max_value=8))
    capacities = draw(
        st.lists(
            st.one_of(
                st.sampled_from(TIE_HEAVY_CAPACITIES),
                st.floats(min_value=1e-3, max_value=1e3),
            ),
            min_size=n_links,
            max_size=n_links,
        )
    )
    routes = draw(
        st.lists(
            st.lists(st.integers(0, n_links - 1), min_size=1, max_size=4),
            min_size=1,
            max_size=16,
        )
    )
    flows = [Flow(i, tuple(links), 1.0) for i, links in enumerate(routes)]
    return flows, capacities


def step_flows(tree: FatTree, algorithm: str, n: int, ecmp: str) -> list[list[Flow]]:
    """One flow list per distinct step of ``algorithm``, routed on ``tree``."""
    schedule = build_schedule(algorithm, n, n * 1000, materialize=False)
    out = []
    for step, _count, _key in schedule.lowering_profile():
        paths = [route(tree, t.src, t.dst, ecmp=ecmp) for t in step.transfers]
        out.append(
            [
                Flow(i, path.links, 4.0 * t.n_elems, latency=path.n_routers * 25e-6)
                for i, (t, path) in enumerate(zip(step.transfers, paths))
            ]
        )
    return out


class TestSolverParity:
    @settings(max_examples=300, deadline=None)
    @given(solver_instances())
    def test_random_instances_bit_identical(self, instance):
        flows, capacities = instance
        assert_bits_equal(
            max_min_rates(flows, capacities),
            max_min_rates_reference(flows, capacities),
        )

    def test_duplicate_link_charged_twice_and_clamped(self):
        # Link 0 freezes flows 0 and 1 at 1.0 each; both list link 1
        # twice, so link 1 is charged 4.0 of its 3.0 and clamps to 0.
        flows = [Flow(0, (0, 1, 1), 1.0), Flow(1, (0, 1, 1), 1.0), Flow(2, (1,), 1.0)]
        rates = max_min_rates(flows, [2.0, 3.0])
        assert rates.tolist() == [1.0, 1.0, 0.0]
        assert_bits_equal(rates, max_min_rates_reference(flows, [2.0, 3.0]))

    def test_negative_and_signed_zero_capacities(self):
        # The seed priced the first pass on raw capacities and clamped
        # every link (-0.0 included) after it.
        flows = [Flow(0, (0,), 1.0), Flow(1, (1, 2), 1.0), Flow(2, (2,), 1.0)]
        capacities = [-1.0, -0.0, 4.0]
        assert_bits_equal(
            max_min_rates(flows, capacities),
            max_min_rates_reference(flows, capacities),
        )

    def test_ties_freeze_in_first_seen_order(self):
        # Links 0 and 1 tie at share 0.15. Link 0 is seen first, so flows
        # 0 and 2 freeze first and link 1 recomputes to 1 ulp below 0.15;
        # freezing link 1 first would give every flow exactly 0.15.
        flows = [Flow(i, links, 1.0) for i, links in enumerate([(0, 1), (1,), (0, 1), (1,)])]
        rates = max_min_rates(flows, [0.3, 0.6])
        assert rates.tolist() == [0.15, 0.14999999999999997, 0.15, 0.14999999999999997]
        assert_bits_equal(rates, max_min_rates_reference(flows, [0.3, 0.6]))

    @pytest.mark.parametrize("ecmp", ECMP_MODES)
    @pytest.mark.parametrize("algorithm", ["ring", "rd", "swing", "wrht", "hring"])
    def test_fattree_routes(self, algorithm, ecmp):
        n = 128
        tree = FatTree(ElectricalSystemConfig(n_nodes=n, ecmp=ecmp))
        capacities = tree.capacities()
        for flows in step_flows(tree, algorithm, n, ecmp):
            assert_bits_equal(
                max_min_rates(flows, capacities),
                max_min_rates_reference(flows, capacities),
            )


def run_both(monkeypatch, capacities, template):
    """Bit patterns of the total and every finish time, under each solver.

    Each solver runs fresh copies of the ``template`` flows; the swap goes
    through the module global that :meth:`FluidSimulation.run` looks up.
    """
    results = []
    for solver in (max_min_rates, max_min_rates_reference):
        monkeypatch.setattr(flows_module, "max_min_rates", solver)
        flows = [Flow(f.flow_id, f.links, f.size, f.latency) for f in template]
        total = FluidSimulation(capacities).run(flows)
        results.append(bits([total] + [f.finish_time for f in flows]))
    return results


class TestFluidSimulationParity:
    @pytest.mark.parametrize("ecmp", ECMP_MODES)
    @pytest.mark.parametrize("algorithm", ["scring", "hring", "swing"])
    def test_fattree_steps(self, monkeypatch, algorithm, ecmp):
        n = 64
        tree = FatTree(ElectricalSystemConfig(n_nodes=n, ecmp=ecmp))
        for flows in step_flows(tree, algorithm, n, ecmp):
            fast, seed = run_both(monkeypatch, tree.capacities(), flows)
            assert fast == seed

    @settings(max_examples=60, deadline=None)
    @given(
        solver_instances(),
        st.lists(st.floats(min_value=1.0, max_value=1e6), min_size=16, max_size=16),
    )
    def test_random_sizes(self, instance, sizes):
        # A run needs every rate positive: no duplicate links (their double
        # charge can clamp a shared link to 0) and no vanishing capacities.
        flows, capacities = instance
        capacities = [max(c, 1e-3) for c in capacities]
        template = [
            Flow(f.flow_id, tuple(dict.fromkeys(f.links)), size)
            for f, size in zip(flows, sizes)
        ]
        with pytest.MonkeyPatch.context() as monkeypatch:
            fast, seed = run_both(monkeypatch, capacities, template)
        assert fast == seed
