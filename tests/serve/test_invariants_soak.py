"""Invariant soak: trace-derived runtime invariants under hostile load.

The ISSUE-4 harness: replay overload traces with multi-threaded
producers, EDF + deadlines, brown-out fault plans, and retries, and
assert on *every* run the invariants the tracer makes checkable:

- conservation: ``completed + rejected + failed == offered``;
- every offered request has exactly one terminal span;
- per-device spans are non-overlapping and monotone;
- no queue wait is negative;
- ``busy_ms`` equals the summed durations of execute/overhead/retry
  spans;
- utilization is within [0, 1].

The regression classes at the bottom pin the concrete accounting bugs
the harness was built to expose; each fails on the pre-fix runtime.
"""

import json
import sys
import threading

import pytest

from repro.serve import (
    DISPATCH_OVERHEAD_CYCLES,
    FAILED,
    FaultPlan,
    InferenceRequest,
    ServeConfig,
    ServeRuntime,
    SimulatedDevice,
    synthetic_trace,
    verify_trace_invariants,
)


def _assert_invariants(report):
    violations = verify_trace_invariants(report)
    assert not violations, "\n".join(violations)


def _capacity_rps(artifact, n_devices):
    return n_devices * 1000.0 / artifact.deployment.latency_ms


SCENARIOS = {
    # Underloaded FIFO fleet: the do-no-harm baseline.
    "clean_fifo": dict(
        factor=0.5, config=dict(n_devices=2, max_queue_wait_ms=None),
    ),
    # 3x overload on EDF with tight deadlines: heavy shedding at the
    # door, at dequeue, and on simulated queue wait.
    "overload_edf_deadlines": dict(
        factor=3.0, deadline_ms=6.0,
        config=dict(n_devices=2, policy="edf", max_queue_depth=32,
                    max_queue_wait_ms=15.0),
    ),
    # Probabilistic brown-outs with retries: wasted work, backoff,
    # avoid-device rerouting.
    "faults_retries": dict(
        factor=0.8,
        config=dict(n_devices=3, max_retries=3, max_queue_wait_ms=None,
                    fault_plan=FaultPlan(brownout_rate=0.3, seed=13)),
    ),
    # Everything at once: the ISSUE-4 acceptance replay — overload, EDF,
    # deadlines, brown-outs, retries, and both shed bounds.
    "brownout_edf_overload": dict(
        factor=2.0, deadline_ms=10.0,
        config=dict(n_devices=4, policy="edf", max_queue_depth=48,
                    max_retries=2, max_queue_wait_ms=20.0,
                    fault_plan=FaultPlan(brownout_rate=0.25, seed=7)),
    ),
    # Large batches under overload (the name dates from fused tier-2
    # dispatch): served one request at a time on the verified engine,
    # every request still gets one execute span and busy_ms == sum of
    # span durations.
    "fused_v2_overload": dict(
        factor=1.5,
        config=dict(n_devices=2, max_batch=16, engine="verified"),
    ),
}


class TestSoakScenarios:
    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_invariants_hold(self, name, small_artifact, digits_small):
        scenario = SCENARIOS[name]
        rate = scenario["factor"] * _capacity_rps(
            small_artifact, scenario["config"]["n_devices"]
        )
        trace = synthetic_trace(
            120, rate, 64, seed=sum(map(ord, name)) % 1000,
            deadline_ms=scenario.get("deadline_ms"),
            inputs=digits_small.x_test,
        )
        config = dict(max_queue_depth=256)
        config.update(scenario["config"])
        report = ServeRuntime(
            small_artifact, ServeConfig(**config)
        ).replay(trace)
        assert report.offered == 120
        _assert_invariants(report)
        if name == "fused_v2_overload":
            assert report.metrics["histograms"]["batch_size"]["max"] > 4

    def test_multi_producer_overload_invariants(self, small_artifact,
                                                digits_small):
        """Concurrent producers + faults + deadlines, unpaced flood."""
        trace = synthetic_trace(
            160, 4.0 * _capacity_rps(small_artifact, 2), 64, seed=29,
            deadline_ms=12.0, inputs=digits_small.x_test,
        )
        config = ServeConfig(
            n_devices=2, policy="edf", max_queue_depth=32,
            max_retries=2, max_queue_wait_ms=25.0,
            fault_plan=FaultPlan(brownout_rate=0.2, seed=31),
        )
        runtime = ServeRuntime(small_artifact, config)
        _submit_concurrently(runtime, trace, n_producers=4)
        report = runtime.report()
        assert report.offered == 160
        _assert_invariants(report)


def _submit_concurrently(runtime, trace, n_producers):
    """Each producer thread submits an interleaved slice of ``trace``,
    switching threads at (nearly) every chance the interpreter offers."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with runtime:
            threads = [
                threading.Thread(
                    target=lambda i=i: [
                        runtime.submit(request)
                        for request in trace[i::n_producers]
                    ]
                )
                for i in range(n_producers)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
                assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)


class TestConcurrentSubmitAccounting:
    """No concurrent `submit()` may be lost.

    Pre-fix, ``self._offered += 1`` raced across producer threads, lost
    updates, and silently broke the conservation law.  Producers now
    only append to a locked inbox; the event loop counts arrivals, in
    arrival order, so the report cannot depend on how the producer
    threads interleaved.
    """

    def test_offered_counts_every_concurrent_submit(self, small_artifact,
                                                    digits_small):
        config = ServeConfig(n_devices=1, max_queue_depth=2,
                             max_queue_wait_ms=None)
        n_threads, per_thread = 4, 250
        x = digits_small.x_test[0]

        def requests():
            return [
                InferenceRequest(request_id=worker * per_thread + i, x=x,
                                 arrival_ms=float(i))
                for worker in range(n_threads) for i in range(per_thread)
            ]

        runtime = ServeRuntime(small_artifact, config)
        _submit_concurrently(runtime, requests(), n_producers=n_threads)
        report = runtime.report()
        assert report.offered == n_threads * per_thread
        assert report.conserved
        assert report.metrics["counters"]["requests.offered"] \
            == n_threads * per_thread
        # Same arrivals from one thread: identical simulated results.
        serial = ServeRuntime(small_artifact, config).replay(requests())
        assert json.dumps(report.to_dict()) == json.dumps(serial.to_dict())


class TestDispatchOverheadAccounting:
    """ISSUE-4 satellite: overhead is charged on the post-jump timeline.

    Pre-fix, ``begin_dispatch`` advanced the clock *before* the idle
    jump in ``execute``, so an idle device absorbed the overhead into
    the idle gap while still counting it as busy time.
    """

    def test_idle_device_overhead_not_absorbed(self, small_artifact,
                                               digits_small):
        device = SimulatedDevice(device_id=0, artifact=small_artifact)
        request = InferenceRequest(
            request_id=0, x=digits_small.x_test[0], arrival_ms=100.0
        )
        overhead_ms = small_artifact.board.cycles_to_ms(
            DISPATCH_OVERHEAD_CYCLES
        )
        device.begin_dispatch(request.earliest_start_ms)
        # The idle jump happens first; only then is overhead charged.
        assert device.clock_ms == pytest.approx(100.0 + overhead_ms)
        execution = device.execute(request)
        assert execution.start_ms == pytest.approx(100.0 + overhead_ms)
        # Busy time equals occupied timeline: nothing busy inside the
        # idle gap [0, 100).
        assert device.busy_ms == pytest.approx(device.clock_ms - 100.0)

    def test_fleet_busy_equals_summed_spans(self, small_artifact,
                                            digits_small):
        # The soak invariant that pins the bug fleet-wide: busy_ms must
        # equal the summed execute/overhead/retry span durations even
        # when devices repeatedly go idle between sparse arrivals.
        trace = synthetic_trace(
            40, 0.3 * _capacity_rps(small_artifact, 2), 64, seed=37,
            inputs=digits_small.x_test,
        )
        report = ServeRuntime(
            small_artifact,
            ServeConfig(n_devices=2, max_queue_wait_ms=None),
        ).replay(trace)
        assert report.completed == 40
        _assert_invariants(report)


class TestRetryPastDeadline:
    """ISSUE-4 satellite: a retried request can never be *rejected*.

    Admission is decided once, at the door.  Pre-fix, a brown-out retry
    whose backoff pushed it past its deadline was recorded as REJECTED
    at dequeue, contradicting the scheduler contract.
    """

    def test_retry_past_deadline_fails_not_rejected(self, small_artifact,
                                                    digits_small):
        runtime = ServeRuntime(
            small_artifact,
            ServeConfig(
                n_devices=2, max_retries=3, backoff_base_ms=5.0,
                max_queue_wait_ms=None,
                fault_plan=FaultPlan(brownout_rate=1.0),   # every device
            ),
        )
        request = InferenceRequest(
            request_id=0, x=digits_small.x_test[0], arrival_ms=0.0,
            deadline_ms=1.0,   # < backoff: the retry is born expired
        )
        with runtime:
            runtime.submit(request)
        report = runtime.report()
        outcome = report.outcomes[0]
        assert outcome.status == FAILED
        assert outcome.reason == "deadline_after_retry"
        assert outcome.attempts == 2          # first try + expired retry
        counters = report.metrics["counters"]
        assert counters["failed.deadline_after_retry"] == 1
        assert counters.get("rejected.deadline", 0) == 0
        _assert_invariants(report)

    def test_deadline_after_retry_under_fault_plan(self, small_artifact,
                                                   digits_small):
        # Sustained load + tight deadlines + a device that always browns
        # out: the shed/fail split must keep rejected == first-attempt
        # decisions and failed == post-admission outcomes.
        trace = synthetic_trace(
            60, _capacity_rps(small_artifact, 2), 64, seed=41,
            deadline_ms=4.0, inputs=digits_small.x_test,
        )
        runtime = ServeRuntime(
            small_artifact,
            ServeConfig(
                n_devices=2, policy="edf", max_retries=2,
                backoff_base_ms=6.0, max_queue_wait_ms=None,
                fault_plan=FaultPlan(
                    brownout_rate=1.0, faulty_devices=frozenset({0})
                ),
            ),
        )
        report = runtime.replay(trace)
        _assert_invariants(report)
        for outcome in report.outcomes:
            if outcome.reason == "deadline_after_retry":
                assert outcome.status == FAILED
                assert outcome.attempts > 1
            if outcome.status == "rejected":
                assert outcome.attempts <= 1
