"""Short-circuiting-ring (SCRing) schedule tests (arXiv 2510.03491 idea)."""

import pytest

from repro.check.engine import verify_plan
from repro.check.findings import errors
from repro.collectives.degraded import build_shrunk_schedule
from repro.collectives.registry import build_schedule
from repro.collectives.scring import build_scring_schedule, scring_arcs
from repro.collectives.serialize import schedule_from_dict, schedule_to_dict
from repro.collectives.verify import verify_allreduce
from repro.core.steps import ring_steps, scring_arc_count, scring_steps


class TestArcs:
    @pytest.mark.parametrize("n", [2, 3, 8, 15, 16, 33])
    @pytest.mark.parametrize("pipeline", [1, 2, 4, 100])
    def test_arcs_partition_all_offsets(self, n, pipeline):
        arcs = scring_arcs(n, pipeline)
        assert len(arcs) == scring_arc_count(n, pipeline)
        flat = sorted(offset for arc in arcs for offset in arc)
        assert flat == list(range(1, n))

    def test_arc_heads_are_ring_nearest(self):
        # Each arc is ordered far-end → head; the head (last entry) must be
        # at least as close to the owner (ring distance) as the far end.
        for n in (8, 16, 33):
            for arc in scring_arcs(n, 2):
                head, far = arc[-1], arc[0]
                dist = lambda off: min(off, n - off)  # noqa: E731
                assert dist(head) <= dist(far)

    def test_balanced_lengths(self):
        for n in (16, 33, 64):
            lengths = {len(a) for a in scring_arcs(n, 3)}
            assert max(lengths) - min(lengths) <= 1


class TestSchedule:
    @pytest.mark.parametrize("n", [2, 3, 4, 7, 8, 15, 16, 32, 64])
    @pytest.mark.parametrize("pipeline", [1, 2, 4])
    def test_postcondition_and_closed_form(self, n, pipeline):
        sched = build_scring_schedule(n, 64, materialize=True, pipeline=pipeline)
        assert sched.n_steps == scring_steps(n, pipeline)
        verify_allreduce(sched)

    def test_singleton(self):
        assert build_scring_schedule(1, 8).n_steps == 0

    def test_default_depth_halves_ring(self):
        for n in (16, 33, 64):
            assert scring_steps(n, 1) <= ring_steps(n) // 2 + 2

    def test_deep_pipeline_reaches_two_steps(self):
        for n in (4, 16, 33):
            sched = build_scring_schedule(n, 64, materialize=True, pipeline=n)
            assert sched.n_steps == 2
            verify_allreduce(sched)

    def test_meta_tags(self):
        sched = build_scring_schedule(16, 64, materialize=True, pipeline=3)
        assert sched.meta["pipeline"] == 3
        assert sched.meta["arcs"] == 6
        assert sched.meta["power_of_two"] is True
        assert sched.meta["profile_exact"] is True

    def test_materialized_profile_validates(self):
        for n in (8, 15, 24):
            build_scring_schedule(n, 48, materialize=True).validate_against_profile()

    def test_synthetic_profile_keeps_step_count(self):
        for n, pipeline in ((256, 1), (1024, 8)):
            sched = build_scring_schedule(n, n * 10, materialize=False, pipeline=pipeline)
            assert sched.n_steps == scring_steps(n, pipeline)

    @pytest.mark.parametrize("pipeline", [1, 4])
    @pytest.mark.parametrize("n", [16, 64, 100])
    def test_synthetic_profile_passes_plan_rules(self, n, pipeline):
        # Each chunk owns its own element range, so the A hub writes a
        # node receives per step are not order-dependent (PLAN006).
        sched = build_scring_schedule(n, 100_000, materialize=False, pipeline=pipeline)
        assert not errors(verify_plan(None, sched))

    def test_registry_spellings(self):
        assert build_schedule("scring", 8, 16).algorithm == "scring"
        assert build_schedule("SCRing", 8, 16).algorithm == "scring"

    def test_degenerate_total_elems(self):
        verify_allreduce(build_scring_schedule(16, 3, materialize=True))

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            build_scring_schedule(0, 8)
        with pytest.raises(ValueError):
            build_scring_schedule(8, 8, pipeline=0)


class TestDegraded:
    def test_shrunk_schedule_keeps_pipeline(self):
        survivors = tuple(i for i in range(16) if i != 5)
        sched = build_shrunk_schedule("scring", 16, 64, survivors, pipeline=3)
        assert sched.meta["participants"] == survivors
        assert sched.meta["pipeline"] == 3
        assert sched.n_steps == scring_steps(15, 3)
        touched = {
            node
            for step in sched.iter_steps()
            for t in step.transfers
            for node in (t.src, t.dst)
        }
        assert touched <= set(survivors)


class TestSerialization:
    def test_round_trip_preserves_knobs(self):
        original = build_scring_schedule(15, 48, materialize=True, pipeline=2)
        restored = schedule_from_dict(schedule_to_dict(original))
        verify_allreduce(restored)
        assert restored.meta["pipeline"] == 2
        assert restored.meta["arcs"] == original.meta["arcs"]
