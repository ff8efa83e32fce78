"""Schedule data-model tests."""

import pickle

import pytest

from repro.collectives.base import (
    CommStep,
    Schedule,
    Transfer,
    compress_steps,
    singleton_schedule,
)


def _step(pairs, size=10, op="sum"):
    return CommStep(tuple(Transfer(a, b, 0, size, op) for a, b in pairs))


class TestTransfer:
    def test_self_transfer_rejected(self):
        with pytest.raises(ValueError):
            Transfer(1, 1, 0, 10)

    def test_bad_range_rejected(self):
        with pytest.raises(ValueError):
            Transfer(0, 1, 5, 3)
        with pytest.raises(ValueError):
            Transfer(0, 1, -1, 3)

    def test_bad_op_rejected(self):
        with pytest.raises(ValueError):
            Transfer(0, 1, 0, 10, "avg")

    def test_n_elems(self):
        assert Transfer(0, 1, 5, 12).n_elems == 7

    def test_empty_range_allowed(self):
        assert Transfer(0, 1, 3, 3).n_elems == 0


class TestCommStep:
    def test_needs_transfers(self):
        with pytest.raises(ValueError):
            CommStep(())

    def test_pattern_key_ignores_positions(self):
        a = CommStep((Transfer(0, 1, 0, 10, "sum"),))
        b = CommStep((Transfer(0, 1, 90, 100, "sum"),))
        assert a.pattern_key() == b.pattern_key()

    def test_pattern_key_sees_sizes(self):
        a = CommStep((Transfer(0, 1, 0, 10, "sum"),))
        b = CommStep((Transfer(0, 1, 0, 11, "sum"),))
        assert a.pattern_key() != b.pattern_key()

    def test_pattern_key_sees_ops(self):
        a = CommStep((Transfer(0, 1, 0, 10, "sum"),))
        b = CommStep((Transfer(0, 1, 0, 10, "copy"),))
        assert a.pattern_key() != b.pattern_key()

    def test_pattern_key_order_independent(self):
        a = CommStep((Transfer(0, 1, 0, 10), Transfer(2, 3, 0, 10)))
        b = CommStep((Transfer(2, 3, 0, 10), Transfer(0, 1, 0, 10)))
        assert a.pattern_key() == b.pattern_key()

    def test_total_elems(self):
        assert _step([(0, 1), (2, 3)], size=7).total_elems() == 14

    def test_pattern_key_computed_once(self):
        step = CommStep((Transfer(2, 3, 0, 10), Transfer(0, 1, 5, 9, "copy")))
        first = step.pattern_key()
        assert step.pattern_key() is first
        assert first == tuple(
            sorted((t.src, t.dst, t.n_elems, t.op) for t in step.transfers)
        )

    def test_cached_pattern_key_survives_pickle(self):
        step = CommStep((Transfer(2, 3, 0, 10), Transfer(0, 1, 5, 9, "copy")))
        key = step.pattern_key()
        clone = pickle.loads(pickle.dumps(step))
        assert clone == step and hash(clone) == hash(step)
        assert clone.pattern_key() == key
        assert clone.pattern_key() is clone.pattern_key()
        fresh = CommStep(step.transfers, step.stage, step.level)
        assert fresh == step and hash(fresh) == hash(step)
        assert fresh.pattern_key() == key


class TestCompressSteps:
    def test_runs_collapse(self):
        s = _step([(0, 1)])
        profile = compress_steps([s, s, s])
        assert len(profile) == 1
        assert profile[0][1] == 3

    def test_distinct_steps_kept(self):
        a, b = _step([(0, 1)]), _step([(1, 2)])
        profile = compress_steps([a, a, b])
        assert [count for _, count in profile] == [2, 1]

    def test_non_adjacent_runs_not_merged(self):
        a, b = _step([(0, 1)]), _step([(1, 2)])
        profile = compress_steps([a, b, a])
        assert [count for _, count in profile] == [1, 1, 1]


class TestSchedule:
    def test_n_steps_from_profile(self):
        s = _step([(0, 1)])
        sched = Schedule("x", 2, 10, steps=[s, s], timing_profile=[(s, 2)])
        assert sched.n_steps == 2

    def test_validate_against_profile_detects_count_mismatch(self):
        s = _step([(0, 1)])
        sched = Schedule("x", 2, 10, steps=[s], timing_profile=[(s, 2)])
        with pytest.raises(AssertionError, match="materialized steps"):
            sched.validate_against_profile()

    def test_validate_against_profile_detects_pattern_mismatch(self):
        a, b = _step([(0, 1)]), _step([(1, 0)])
        sched = Schedule("x", 2, 10, steps=[a], timing_profile=[(b, 1)])
        with pytest.raises(AssertionError, match="pattern"):
            sched.validate_against_profile()

    def test_iter_steps_requires_materialization(self):
        s = _step([(0, 1)])
        sched = Schedule("x", 2, 10, steps=None, timing_profile=[(s, 1)])
        with pytest.raises(RuntimeError, match="materialize"):
            list(sched.iter_steps())

    def test_empty_profile_rejected_for_multinode(self):
        with pytest.raises(ValueError):
            Schedule("x", 2, 10, steps=[], timing_profile=[])

    def test_callable_profile_built_once_on_first_read(self):
        s = _step([(0, 1)])
        calls = []

        def build():
            calls.append(1)
            return [(s, 3)]

        sched = Schedule("x", 2, 10, steps=None, timing_profile=build)
        assert not sched.profile_built and calls == []
        assert sched.n_steps == 3
        assert sched.profile_built
        assert sched.timing_profile is sched.timing_profile
        assert calls == [1]

    def test_empty_callable_profile_rejected_on_first_read(self):
        sched = Schedule("x", 2, 10, steps=None, timing_profile=list)
        with pytest.raises(ValueError, match="timing profile"):
            sched.timing_profile

    def test_singleton(self):
        sched = singleton_schedule("ring", 100)
        assert sched.n_steps == 0
        assert sched.n_nodes == 1
