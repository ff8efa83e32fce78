"""Per-backend behavior: uniform results, typed errors, knob recovery."""

import pickle

import pytest

from repro.backend import (
    AnalyticBackend,
    BackendConfigError,
    BackendError,
    ElectricalBackend,
    OpticalBackend,
    PlanCache,
)
from repro.collectives.registry import (
    DISPLAY_NAMES,
    available_algorithms,
    build_schedule,
)
from repro.core.timing import CostModel, algorithm_time
from repro.electrical.config import ElectricalSystemConfig
from repro.optical.config import OpticalSystemConfig
from repro.optical.rwa import RwaInfeasibleError
from repro.optical.topology import RingTopology


def _model():
    return CostModel(line_rate=5e9, step_overhead=25e-6)


class TestOpticalBackend:
    def test_events_harvested(self):
        be = OpticalBackend(
            OpticalSystemConfig(n_nodes=8, n_wavelengths=4), collect_events=True
        )
        result = be.run(build_schedule("ring", 8, 800, materialize=False))
        categories = {cat for _, cat, _ in result.events}
        assert "optical.round" in categories
        assert all(isinstance(p, dict) for _, _, p in result.events)

    def test_oversized_schedule_is_config_error(self):
        be = OpticalBackend(OpticalSystemConfig(n_nodes=8, n_wavelengths=4))
        sched = build_schedule("ring", 16, 1600, materialize=False)
        with pytest.raises(BackendConfigError, match="schedule spans 16 nodes"):
            be.run(sched)

    def test_rwa_failure_annotated_with_backend_and_step(self, monkeypatch):
        # Force the RWA stage to fail: lower() must attach the backend name
        # and the profile-entry index before re-raising.
        import repro.optical.network as net_mod

        def boom(*args, **kwargs):
            raise RwaInfeasibleError([], 4, 1, frozenset())

        monkeypatch.setattr(net_mod, "plan_rounds", boom)
        be = OpticalBackend(
            OpticalSystemConfig(n_nodes=8, n_wavelengths=4),
            plan_cache=PlanCache(maxsize=16),  # fresh: force the cold path
        )
        with pytest.raises(RwaInfeasibleError) as exc_info:
            be.run(build_schedule("ring", 8, 800, materialize=False))
        assert exc_info.value.backend == "optical"
        assert exc_info.value.step_index == 0

    def test_rwa_error_is_backend_error_and_pickles(self):
        topo = RingTopology(8)
        err = RwaInfeasibleError(
            [topo.cw_route(0, 2)], 4, 1, frozenset(range(4))
        )
        err.backend = "optical"
        err.step_index = 3
        assert isinstance(err, BackendError)
        back = pickle.loads(pickle.dumps(err))
        assert type(back) is RwaInfeasibleError
        assert back.n_wavelengths == 4
        assert back.blocked == frozenset(range(4))
        assert back.backend == "optical"
        assert back.step_index == 3
        assert str(back) == str(err)


class TestElectricalBackend:
    def test_uniform_result(self):
        be = ElectricalBackend(ElectricalSystemConfig(n_nodes=8))
        result = be.run(build_schedule("ring", 8, 800, materialize=False))
        assert result.backend == "electrical"
        assert result.total_time > 0
        assert result.n_steps == 2 * (8 - 1)
        assert result.max_link_share >= 1
        assert all(r.n_transfers > 0 for r in result.timeline)

    def test_events_harvested(self):
        be = ElectricalBackend(
            ElectricalSystemConfig(n_nodes=8), collect_events=True
        )
        result = be.run(build_schedule("ring", 8, 800, materialize=False))
        assert {cat for _, cat, _ in result.events} == {"electrical.step"}

    def test_oversized_schedule_is_config_error(self):
        be = ElectricalBackend(ElectricalSystemConfig(n_nodes=8))
        sched = build_schedule("ring", 16, 1600, materialize=False)
        with pytest.raises(BackendConfigError, match="fat-tree has"):
            be.run(sched)


class TestAnalyticBackend:
    def test_total_matches_closed_form_bit_exactly(self):
        be = AnalyticBackend(_model(), w=8)
        sched = build_schedule("wrht", 64, 1_000_000, n_wavelengths=8, m=9,
                               materialize=False)
        result = be.run(sched, bytes_per_elem=4)
        expected = algorithm_time(
            "WRHT", 64, 4_000_000, _model(), wrht_m=9, hring_m=5, w=8
        )
        assert result.total_time == expected
        assert result.meta["wrht_m"] == 9

    def test_timeline_sum_agrees_with_total(self):
        be = AnalyticBackend(_model(), w=8)
        for algo, kwargs in [
            ("ring", {}),
            ("hring", {"m": 4}),
            ("bt", {}),
            ("rd", {}),
            ("wrht", {"n_wavelengths": 8}),
        ]:
            sched = build_schedule(algo, 16, 160_000, materialize=False, **kwargs)
            result = be.run(sched)
            folded = sum(r.duration * r.count for r in result.timeline)
            assert folded == pytest.approx(result.total_time, rel=1e-12), algo

    def test_hring_m_recovered_from_meta(self):
        be = AnalyticBackend(_model(), w=8)
        sched = build_schedule("hring", 16, 160_000, m=4, materialize=False)
        assert be.run(sched).meta["hring_m"] == 4

    def test_dbtree_rejected(self):
        be = AnalyticBackend(_model(), w=8)
        sched = build_schedule("dbtree", 16, 160_000, materialize=False)
        with pytest.raises(BackendConfigError, match="no closed-form model"):
            be.run(sched)

    @pytest.mark.parametrize("n", [2, 3, 16, 64, 1024])
    @pytest.mark.parametrize(
        "algo", [a for a in available_algorithms() if a != "dbtree"]
    )
    def test_pricing_builds_no_profile(self, algo, n, monkeypatch):
        # The suite's plan-verification plugin wraps ``lower`` and reads the
        # schedule's profile; price through the backend's own ``lower``.
        lower = AnalyticBackend.lower
        monkeypatch.setattr(
            AnalyticBackend, "lower", getattr(lower, "__wrapped__", lower)
        )
        be = AnalyticBackend(_model(), w=64, plan_cache=PlanCache())
        sched = build_schedule(algo, n, 1_000_000, materialize=False)
        result = be.run(sched, bytes_per_elem=4)
        assert not sched.profile_built
        plan = sched.meta.get("plan")
        assert result.total_time == algorithm_time(
            DISPLAY_NAMES[algo], n, 4_000_000, _model(),
            wrht_m=None if plan is None else plan.m,
            hring_m=sched.meta.get("m", 5), w=64,
        )
        fresh = build_schedule(algo, n, 1_000_000, materialize=False)
        assert sched.n_steps == fresh.n_steps
        assert sched.profile_built

    def test_single_node_is_free(self):
        be = AnalyticBackend(_model(), w=8)
        sched = build_schedule("ring", 1, 100, materialize=False)
        result = be.run(sched)
        assert result.total_time == 0.0
        assert result.timeline == ()
