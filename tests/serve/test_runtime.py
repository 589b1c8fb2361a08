"""The serving runtime end to end: conservation, scheduling, metrics."""

import sys

import numpy as np
import pytest

import repro.serve.runtime as runtime_module
from repro.errors import ConfigurationError
from repro.serve import (
    COMPLETED,
    REJECTED,
    InferenceRequest,
    ServeConfig,
    ServeRuntime,
    synthetic_trace,
)


def _runtime(artifact, **overrides):
    defaults = dict(n_devices=4, max_queue_depth=256,
                    max_queue_wait_ms=None)
    defaults.update(overrides)
    return ServeRuntime(artifact, ServeConfig(**defaults))


class TestReplayHappyPath:
    def test_underloaded_fleet_completes_everything(self, small_artifact,
                                                    digits_small):
        trace = synthetic_trace(
            60, 1000.0, 64, seed=1, inputs=digits_small.x_test
        )
        report = _runtime(small_artifact).replay(trace)
        assert report.conserved
        assert report.completed == 60
        assert report.rejected == 0 and report.failed == 0
        assert report.throughput_rps > 0
        assert report.latency_ms["p50"] <= report.latency_ms["p95"] \
            <= report.latency_ms["p99"]
        for value in report.device_utilization.values():
            assert 0.0 <= value <= 1.0

    def test_labels_match_reference_backend(self, small_artifact,
                                            small_trained, digits_small):
        x = digits_small.x_test[:40]
        trace = synthetic_trace(40, 2000.0, 64, seed=2, inputs=x)
        report = _runtime(small_artifact).replay(trace)
        reference = small_trained.quantized.predict(x)
        by_id = {o.request_id: o for o in report.outcomes}
        for i in range(40):
            assert by_id[i].status == COMPLETED
            assert by_id[i].label == reference[i % len(x)]

    def test_every_offered_request_has_one_outcome(self, small_artifact,
                                                   digits_small):
        trace = synthetic_trace(
            50, 4000.0, 64, seed=3, inputs=digits_small.x_test
        )
        report = _runtime(small_artifact).replay(trace)
        ids = [o.request_id for o in report.outcomes]
        assert sorted(ids) == list(range(50))        # exactly once each


class TestAdmissionControl:
    def test_burst_overflows_bounded_queue(self, small_artifact,
                                           digits_small):
        # All requests arrive at (nearly) the same instant: an
        # instantaneous burst far beyond the queue bound must shed with
        # typed rejections, not queue without bound.
        trace = synthetic_trace(
            80, 1e6, 64, seed=4, inputs=digits_small.x_test
        )
        report = _runtime(
            small_artifact, n_devices=2, max_queue_depth=8
        ).replay(trace)
        assert report.conserved
        assert report.rejected > 0
        reasons = {
            o.reason for o in report.outcomes if o.status == REJECTED
        }
        assert reasons <= {"queue_full", "queue_wait"}
        assert "queue_full" in reasons

    def test_sustained_overload_sheds_on_sim_queue_wait(
        self, small_artifact, digits_small
    ):
        capacity_rps = 1000.0 / small_artifact.deployment.latency_ms
        trace = synthetic_trace(
            150, 3.0 * capacity_rps, 64, seed=5,
            inputs=digits_small.x_test,
        )
        report = _runtime(
            small_artifact, n_devices=1, max_queue_wait_ms=5.0
        ).replay(trace)
        assert report.conserved
        assert report.rejected > 0
        assert report.metrics["counters"].get("rejected.queue_wait", 0) > 0

    def test_deadline_shedding(self, small_artifact, digits_small):
        # Sub-service-time deadlines under load: late requests shed.
        latency_ms = small_artifact.deployment.latency_ms
        trace = synthetic_trace(
            60, 20.0 / latency_ms * 1000.0, 64, seed=6,
            deadline_ms=latency_ms * 1.5, inputs=digits_small.x_test,
        )
        report = _runtime(
            small_artifact, n_devices=1, policy="edf"
        ).replay(trace)
        assert report.conserved
        deadline_shed = report.metrics["counters"].get(
            "rejected.deadline", 0
        )
        assert deadline_shed > 0
        assert report.completed + report.rejected == 60


class TestRuntimeLifecycle:
    def test_invalid_config_rejected(self):
        with pytest.raises(ConfigurationError):
            ServeConfig(n_devices=0)
        with pytest.raises(ConfigurationError):
            ServeConfig(max_batch=0)

    @pytest.mark.parametrize("wait", [-1.0, 0.0, float("nan"),
                                      float("-inf")])
    def test_queue_wait_bound_must_be_positive(self, wait):
        """A bound of 0 or less sheds every request after charging its
        dispatch, and NaN would switch the bound off."""
        with pytest.raises(ConfigurationError, match=(
            f"^max_queue_wait_ms must be positive, got {wait}$"
        )):
            ServeConfig(max_queue_wait_ms=wait)

    @pytest.mark.parametrize("rate, deadline, message", [
        (float("nan"), None, "arrival rate must be positive"),
        (100.0, float("nan"), "deadline_ms must be positive, got nan"),
    ], ids=["rate-nan", "deadline-nan"])
    def test_trace_refuses_nan(self, rate, deadline, message):
        with pytest.raises(ConfigurationError, match=f"^{message}$"):
            synthetic_trace(4, rate, 64, deadline_ms=deadline)

    def test_infinite_bounds_and_rates_stay_legal(self, small_artifact):
        trace = synthetic_trace(8, float("inf"), 64)
        assert [r.arrival_ms for r in trace] == [0.0] * 8
        report = _runtime(
            small_artifact, max_queue_wait_ms=float("inf")
        ).replay(trace)
        assert report.completed == 8

    def test_invalid_input_fails_typed_without_stopping_fleet(
        self, small_artifact, digits_small
    ):
        runtime = _runtime(small_artifact, n_devices=2)
        bad = InferenceRequest(
            request_id=0, x=np.full(64, np.nan), arrival_ms=0.0
        )
        good = InferenceRequest(
            request_id=1, x=digits_small.x_test[0], arrival_ms=0.0
        )
        report = runtime.replay([bad, good])
        assert report.conserved
        by_id = {o.request_id: o for o in report.outcomes}
        assert by_id[0].status == "failed"
        assert "invalid_input" in by_id[0].reason
        assert by_id[1].status == COMPLETED


class TestBatchingMetrics:
    def test_batches_amortize_dispatch_overhead(self, small_artifact,
                                                digits_small):
        # Same burst, batch size 1 vs 8: fewer dispatches, less total
        # overhead, so the batched fleet finishes sooner in sim time.
        def run(max_batch):
            trace = synthetic_trace(
                40, 1e6, 64, seed=7, inputs=digits_small.x_test
            )
            report = _runtime(
                small_artifact, n_devices=1, max_batch=max_batch
            ).replay(trace)
            assert report.completed == 40
            return report

        single = run(1)
        batched = run(8)
        dispatched = "batches.dispatched"
        assert single.metrics["counters"][dispatched] == 40
        assert batched.metrics["counters"][dispatched] < 40
        assert batched.makespan_ms < single.makespan_ms


class TestDispatch:
    def test_devices_are_sorted_only_when_work_is_queued(
        self, small_artifact, digits_small, monkeypatch
    ):
        """Every device-free event dispatches, and most find the queue
        empty; those return before ordering the idle devices."""
        runtime = _runtime(small_artifact, n_devices=3)
        dispatch = runtime._dispatch
        depths, sorted_at = [], []

        def counting_dispatch():
            depths.append(runtime.queue.depth)
            dispatch()

        def spying_sorted(iterable, **kwargs):
            if sys._getframe(1).f_code is ServeRuntime._dispatch.__code__:
                sorted_at.append(runtime.queue.depth)
            return sorted(iterable, **kwargs)

        monkeypatch.setattr(runtime, "_dispatch", counting_dispatch)
        monkeypatch.setattr(runtime_module, "sorted", spying_sorted,
                            raising=False)
        report = runtime.replay(synthetic_trace(
            60, 3000.0, 64, seed=4, inputs=digits_small.x_test
        ))
        assert report.completed == 60
        assert 0 in depths
        assert sorted_at == [depth for depth in depths if depth]
