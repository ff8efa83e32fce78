"""Contract tests for the shared backend data model and typed errors."""

import json
import pickle

import pytest

from repro.backend import (
    BackendConfigError,
    BackendError,
    BackendExecutionError,
    ExecutionResult,
    PlanCacheCounters,
    StepRecord,
)


class TestStepRecord:
    def test_round_trip(self):
        rec = StepRecord(
            stage="reduce", count=3, duration=1.5e-4, bytes_per_step=4096.0,
            n_transfers=8, rounds=2, peak_wavelength=4, max_link_share=0,
        )
        assert StepRecord(**rec.to_dict()) == rec

    def test_round_trip_through_json(self):
        rec = StepRecord(stage="broadcast", count=1, duration=0.5, bytes_per_step=1.0)
        assert StepRecord(**json.loads(json.dumps(rec.to_dict()))) == rec


class TestExecutionResult:
    def _result(self):
        return ExecutionResult(
            backend="optical",
            algorithm="wrht",
            n_steps=3,
            total_time=4.5e-4,
            total_bytes=1.2e7,
            timeline=(
                StepRecord("reduce", 2, 1.5e-4, 4e6, n_transfers=4, rounds=2,
                           peak_wavelength=8),
                StepRecord("broadcast", 1, 1.5e-4, 4e6, n_transfers=4,
                           peak_wavelength=2),
            ),
            events=((0.0, "optical.round", {"round": 1}),),
            cache=PlanCacheCounters(hits=1, misses=2),
            meta={"interpretation": "calibrated"},
        )

    def test_round_trip(self):
        data = self._result().to_dict()
        assert json.loads(json.dumps(data)) == data

    def test_derived_properties(self):
        res = self._result()
        assert res.total_rounds == 2 * 2 + 1 * 1
        assert res.peak_wavelength == 8
        assert res.max_link_share == 0

    def test_empty_timeline_properties(self):
        res = ExecutionResult(
            backend="analytic", algorithm="ring", n_steps=0,
            total_time=0.0, total_bytes=0.0,
        )
        assert res.total_rounds == 0
        assert res.peak_wavelength == 0
        assert res.max_link_share == 0


class TestBackendErrors:
    def test_str_carries_backend_and_step(self):
        err = BackendError("boom", backend="optical", step_index=7)
        assert "[backend=optical, step=7] boom" == str(err)

    def test_str_without_context(self):
        assert str(BackendError("boom")) == "boom"

    def test_config_error_is_value_error(self):
        # Pre-refactor entry points raised ValueError; callers that still
        # catch ValueError must keep working.
        assert issubclass(BackendConfigError, ValueError)
        assert issubclass(BackendConfigError, BackendError)

    def test_execution_error_is_runtime_error(self):
        assert issubclass(BackendExecutionError, RuntimeError)

    @pytest.mark.parametrize(
        "cls", [BackendError, BackendConfigError, BackendExecutionError]
    )
    def test_pickle_round_trip(self, cls):
        err = cls("lowering failed", backend="electrical", step_index=3)
        back = pickle.loads(pickle.dumps(err))
        assert type(back) is cls
        assert back.backend == "electrical"
        assert back.step_index == 3
        assert str(back) == str(err)
